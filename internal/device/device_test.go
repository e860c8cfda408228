package device

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"accv/internal/mem"
)

func newDev() *Device { return New(Config{}) }

func TestQueueFIFOOrder(t *testing.T) {
	q := newQueue(1)
	var order []int
	done := make(chan struct{})
	for i := 0; i < 16; i++ {
		i := i
		q.Enqueue(func() error {
			order = append(order, i) // safe: one worker goroutine
			if i == 15 {
				close(done)
			}
			return nil
		})
	}
	<-done
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestQueueTestAndWait(t *testing.T) {
	q := newQueue(2)
	release := make(chan struct{})
	q.Enqueue(func() error {
		<-release
		return nil
	})
	if q.Test() {
		t.Error("queue with a pending op must not test done")
	}
	close(release)
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if !q.Test() {
		t.Error("drained queue must test done")
	}
}

// idle blocks until q's worker goroutine has stopped, without consuming
// the first-Test mark the way Test and Wait do.
func idle(q *Queue) {
	q.mu.Lock()
	for q.running {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

func TestQueueFirstTestReportsPending(t *testing.T) {
	q := newQueue(4)
	ran := false
	q.Enqueue(func() error { ran = true; return nil })
	idle(q)
	if !ran {
		t.Fatal("the op must have run")
	}
	if q.Test() {
		t.Error("the first Test after an enqueue must report the work pending")
	}
	if !q.Test() {
		t.Error("a later Test must report the finished work done")
	}
	q.Enqueue(func() error { return nil })
	if err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if !q.Test() {
		t.Error("Wait must clear the first-Test mark")
	}
}

func TestTestAllConsumesEveryMark(t *testing.T) {
	d := newDev()
	for tag := int64(0); tag < 4; tag++ {
		q := d.Queue(tag)
		q.Enqueue(func() error { return nil })
		idle(q)
	}
	if d.TestAll() {
		t.Error("the first TestAll after enqueues must report work pending")
	}
	if !d.TestAll() {
		t.Error("the second TestAll must see every queue done")
	}
}

func TestQueueDeferredError(t *testing.T) {
	q := newQueue(3)
	boom := errors.New("boom")
	q.Enqueue(func() error { return boom })
	if err := q.Wait(); err != boom {
		t.Fatalf("wait must surface the deferred error, got %v", err)
	}
	if err := q.Wait(); err != nil {
		t.Fatal("the error must be cleared after reporting")
	}
}

func TestDeviceWaitAllAndTestAll(t *testing.T) {
	d := newDev()
	var ran atomic.Int32
	for tag := int64(0); tag < 4; tag++ {
		d.Queue(tag).Enqueue(func() error {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil
		})
	}
	if err := d.WaitAll(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("ran %d ops", ran.Load())
	}
	if !d.TestAll() {
		t.Error("TestAll after WaitAll must be true")
	}
}

func TestPresentTableRefcounts(t *testing.T) {
	d := newDev()
	host := mem.NewBuffer(mem.KInt, 100, mem.Host, "a")
	for i := 0; i < 100; i++ {
		_ = host.Store(i, mem.Int(int64(i)))
	}
	m1, created, err := d.MapIn(host, 0, 100, true)
	if err != nil || !created {
		t.Fatalf("first MapIn: %v created=%v", err, created)
	}
	// Nested region: same section maps without a new allocation.
	m2, created, err := d.MapIn(host, 10, 20, true)
	if err != nil || created || m2 != m1 {
		t.Fatalf("nested MapIn must reuse: %v created=%v same=%v", err, created, m2 == m1)
	}
	if m1.Refs != 2 {
		t.Fatalf("refs = %d, want 2", m1.Refs)
	}
	// Device-side mutation.
	_ = m1.Dev.Store(5, mem.Int(999))
	// Inner exit: no copyout, mapping survives.
	if err := d.Unmap(m2, true); err != nil {
		t.Fatal(err)
	}
	if d.Lookup(host, 0, 100) == nil {
		t.Fatal("mapping must survive inner unmap")
	}
	v, _ := host.Load(5)
	if v.I == 999 {
		t.Fatal("inner unmap must not copy out")
	}
	// Outer exit with copyout.
	if err := d.Unmap(m1, true); err != nil {
		t.Fatal(err)
	}
	if d.Lookup(host, 0, 100) != nil {
		t.Fatal("mapping must be gone after last unmap")
	}
	v, _ = host.Load(5)
	if v.I != 999 {
		t.Fatal("outer unmap must copy out")
	}
}

func TestPartialOverlapRejected(t *testing.T) {
	d := newDev()
	host := mem.NewBuffer(mem.KInt, 100, mem.Host, "a")
	if _, _, err := d.MapIn(host, 0, 50, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.MapIn(host, 40, 30, false); err == nil {
		t.Fatal("partially present section must be rejected")
	}
	// Disjoint sections are fine.
	if _, _, err := d.MapIn(host, 60, 20, false); err != nil {
		t.Fatalf("disjoint section: %v", err)
	}
}

func TestUpdateHostAndDevice(t *testing.T) {
	d := newDev()
	host := mem.NewBuffer(mem.KInt, 10, mem.Host, "a")
	m, _, err := d.MapIn(host, 0, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Dev.Store(3, mem.Int(42))
	if err := d.UpdateHost(host, 0, 10); err != nil {
		t.Fatal(err)
	}
	if v, _ := host.Load(3); v.I != 42 {
		t.Fatal("update host did not transfer")
	}
	_ = host.Store(4, mem.Int(7))
	if err := d.UpdateDevice(host, 4, 1); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Dev.Load(4); v.I != 7 {
		t.Fatal("update device did not transfer")
	}
	other := mem.NewBuffer(mem.KInt, 10, mem.Host, "b")
	if err := d.UpdateHost(other, 0, 10); err == nil {
		t.Fatal("update of unmapped data must fail")
	}
	var npe *NotPresentError
	if !errors.As(d.UpdateHost(other, 0, 10), &npe) {
		t.Fatal("want NotPresentError")
	}
}

func TestGarbageAllocationDiffersFromHost(t *testing.T) {
	d := newDev()
	host := mem.NewBuffer(mem.KInt, 32, mem.Host, "b")
	for i := 0; i < 32; i++ {
		_ = host.Store(i, mem.Int(int64(i*i+7)))
	}
	m, _, err := d.MapIn(host, 0, 32, false) // no copyin: Fig. 11 situation
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 32; i++ {
		hv, _ := host.Load(i)
		dv, _ := m.Dev.Load(i)
		if hv.Equal(dv) {
			same++
		}
	}
	if same > 4 {
		t.Errorf("uninitialized device memory matches host in %d/32 slots", same)
	}
}

func TestAllocFree(t *testing.T) {
	d := newDev()
	p := d.Alloc(mem.KInt, 16)
	if p.IsNil() || p.Buf.Len() != 16 {
		t.Fatal("alloc failed")
	}
	if err := d.Free(*p); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(*p); err == nil {
		t.Fatal("double free must fail")
	}
	stray := mem.Ptr{Buf: mem.NewBuffer(mem.KInt, 1, mem.Device, "x")}
	if err := d.Free(stray); err == nil {
		t.Fatal("free of non-acc_malloc pointer must fail")
	}
	if err := d.Free(mem.Ptr{}); err != nil {
		t.Fatal("free(NULL) is a no-op")
	}
}

// Property: after any sequence of MapIn/Unmap pairs the present table is
// empty and host data equals the device writes of the last copyout.
func TestMapUnmapBalanced(t *testing.T) {
	f := func(sections []uint8) bool {
		d := newDev()
		host := mem.NewBuffer(mem.KInt, 64, mem.Host, "q")
		var maps []*DataMapping
		for _, s := range sections {
			off := int(s) % 32
			n := 1 + int(s)%16
			m, _, err := d.MapIn(host, off, n, true)
			if err != nil {
				// Partial overlap: acceptable outcome, skip.
				continue
			}
			maps = append(maps, m)
		}
		for _, m := range maps {
			if err := d.Unmap(m, false); err != nil {
				return false
			}
		}
		return d.PresentCount() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPlatformSelection(t *testing.T) {
	p := NewPlatform(Config{ConcreteType: Nvidia}, 2)
	if p.NumDevices(NotHost) != 2 {
		t.Fatal("want 2 devices")
	}
	if p.NumDevices(HostDev) != 1 {
		t.Fatal("the host is always available")
	}
	if err := p.SetDeviceNum(1, NotHost); err != nil {
		t.Fatal(err)
	}
	if p.DeviceNum(NotHost) != 1 {
		t.Fatal("device number not recorded")
	}
	if err := p.SetDeviceNum(5, NotHost); err == nil {
		t.Fatal("out-of-range device number must fail")
	}
	p.SetDeviceType(NotHost)
	if p.DeviceType() != Nvidia {
		t.Fatalf("not_host resolves to the concrete type, got %s", p.DeviceType())
	}
	p.SetDeviceType(HostDev)
	if !p.HostMode() {
		t.Fatal("host selection must enable host mode")
	}
}

func TestPlatformEnv(t *testing.T) {
	p := NewPlatform(Config{ConcreteType: Nvidia}, 2)
	p.SetEnv("ACC_DEVICE_TYPE", "host")
	p.SetEnv("ACC_DEVICE_NUM", "1")
	if err := p.Init(Default); err != nil {
		t.Fatal(err)
	}
	if !p.HostMode() {
		t.Fatal("ACC_DEVICE_TYPE=host must select host mode")
	}
	if p.DeviceNum(NotHost) != 1 {
		t.Fatal("ACC_DEVICE_NUM must select the device")
	}
}

func TestParseTypeName(t *testing.T) {
	for s, want := range map[string]Type{
		"acc_device_nvidia": Nvidia,
		"host":              HostDev,
		"NVIDIA":            Nvidia,
		"not_host":          NotHost,
	} {
		got, err := ParseTypeName(s)
		if err != nil || got != want {
			t.Errorf("ParseTypeName(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseTypeName("quantum"); err == nil {
		t.Error("unknown type must fail")
	}
}

func TestLaunchGangLimit(t *testing.T) {
	d := New(Config{Backend: Backend{Name: "tiny", GangLimit: 2, WorkerLimit: 1, VectorLimit: 1, CycleScale: 1}})
	if err := d.Launch(3); err == nil {
		t.Fatal("gang limit must be enforced")
	}
	if err := d.Launch(2); err != nil {
		t.Fatalf("a launch at the limit must be admitted: %v", err)
	}
	if n := d.Stats.Kernels.Load(); n != 1 {
		t.Fatalf("only the admitted launch counts as a kernel, got %d", n)
	}
}

func TestCorruptTransfers(t *testing.T) {
	d := New(Config{CorruptTransfers: true})
	host := mem.NewBuffer(mem.KInt, 16, mem.Host, "a")
	for i := 0; i < 16; i++ {
		_ = host.Store(i, mem.Int(int64(i)))
	}
	m, _, err := d.MapIn(host, 0, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := 0; i < 16; i++ {
		hv, _ := host.Load(i)
		dv, _ := m.Dev.Load(i)
		if !hv.Equal(dv) {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("faulty memory must flip exactly one element, flipped %d", diff)
	}
}

func TestDeviceReset(t *testing.T) {
	d := newDev()
	host := mem.NewBuffer(mem.KInt, 8, mem.Host, "a")
	if _, _, err := d.MapIn(host, 0, 8, false); err != nil {
		t.Fatal(err)
	}
	d.Queue(1).Enqueue(func() error { return nil })
	d.Reset()
	if d.PresentCount() != 0 {
		t.Fatal("reset must clear the present table")
	}
	if !d.TestAll() {
		t.Fatal("reset must drain the queues")
	}
}

func TestPlatformResetAndDevices(t *testing.T) {
	p := NewPlatform(Config{ConcreteType: Cuda}, 2)
	p.SetEnv("ACC_DEVICE_TYPE", "host")
	if p.Env("ACC_DEVICE_TYPE") != "host" {
		t.Fatal("env roundtrip")
	}
	if err := p.Init(Default); err != nil {
		t.Fatal(err)
	}
	if !p.HostMode() {
		t.Fatal("env must select host mode")
	}
	if len(p.Devices()) != 2 {
		t.Fatal("device enumeration")
	}
	host := mem.NewBuffer(mem.KInt, 4, mem.Host, "x")
	if _, _, err := p.Current().MapIn(host, 0, 4, false); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.HostMode() {
		t.Error("reset must restore the default device type")
	}
	if p.Current().PresentCount() != 0 {
		t.Error("reset must clear device state")
	}
}

func TestTypeAndBackendStrings(t *testing.T) {
	if NotHost.String() != "acc_device_not_host" || Cuda.String() != "acc_device_cuda" {
		t.Error("type names")
	}
	if Type(99).String() == "" {
		t.Error("unknown types still render")
	}
	if MapGangGridWorkerY.String() == MapGangBlockWorkerWarp.String() {
		t.Error("mapping names must differ")
	}
}
