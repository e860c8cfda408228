// Package device implements the simulated accelerator the validation suite
// runs against: discrete device memory with a present table, per-tag async
// queues, the kernel-launch gate (backend gang limit and kernel count), and
// a simulated cycle model whose gang/worker/vector mapping is configurable
// per vendor (PGI, CAPS, and Cray map the three parallelism levels
// differently, §II of the paper).
//
// The device stands in for the NVIDIA K20 of the paper's testbed: every
// observable behaviour the test programs check — stale host copies,
// uninitialized device allocations, lost updates under redundant execution,
// async completion — follows from discrete memory plus real concurrency.
// This package provides the memory and the async queues; the interpreter
// runs a kernel's gangs and workers on goroutines of their own.
package device

import (
	"fmt"
	"sync"
	"sync/atomic"

	"accv/internal/mem"
)

// Type enumerates OpenACC device types. The first four are the types the
// 1.0 specification names; the rest are the implementation-defined concrete
// types the paper's Fig. 12 discussion lists for CAPS and PGI.
type Type int

// Device types.
const (
	None Type = iota
	Default
	HostDev
	NotHost
	Nvidia
	Cuda
	Opencl
	Radeon
	Xeonphi
	PGIOpencl
	NvidiaOpencl
)

var typeNames = map[Type]string{
	None:         "acc_device_none",
	Default:      "acc_device_default",
	HostDev:      "acc_device_host",
	NotHost:      "acc_device_not_host",
	Nvidia:       "acc_device_nvidia",
	Cuda:         "acc_device_cuda",
	Opencl:       "acc_device_opencl",
	Radeon:       "acc_device_radeon",
	Xeonphi:      "acc_device_xeonphi",
	PGIOpencl:    "acc_device_pgi_opencl",
	NvidiaOpencl: "acc_device_nvidia_opencl",
}

// String returns the acc_device_* spelling.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("acc_device_%d", int(t))
}

// Backend describes the translation target of the software stack (Fig. 13:
// OpenACC is translated to CUDA or OpenCL on Titan). Limits and the cycle
// scale differ so the harness can distinguish stacks.
type Backend struct {
	Name        string
	GangLimit   int
	WorkerLimit int
	VectorLimit int
	CycleScale  float64 // simulated cycles per interpreted operation
}

// Standard backends.
var (
	// CUDA is the NVIDIA CUDA translation backend.
	CUDA = Backend{Name: "cuda", GangLimit: 65535, WorkerLimit: 64, VectorLimit: 1024, CycleScale: 1.0}
	// OpenCL is the OpenCL translation backend.
	OpenCL = Backend{Name: "opencl", GangLimit: 65535, WorkerLimit: 64, VectorLimit: 512, CycleScale: 1.15}
)

// Mapping enumerates how a compiler maps gang/worker/vector onto the
// hardware (§II): each vendor chooses differently, which changes the
// simulated timing, not the results.
type Mapping int

// Vendor gang/worker/vector mappings.
const (
	// MapGangBlockVectorThread: gang→thread block, vector→threads,
	// worker ignored (PGI).
	MapGangBlockVectorThread Mapping = iota
	// MapGangGridWorkerY: gang→grid.x, worker→block.y, vector→block.x (CAPS).
	MapGangGridWorkerY
	// MapGangBlockWorkerWarp: gang→block, worker→warp, vector→SIMT group (Cray).
	MapGangBlockWorkerWarp
)

// String names the mapping.
func (m Mapping) String() string {
	switch m {
	case MapGangGridWorkerY:
		return "gang=grid.x worker=block.y vector=block.x"
	case MapGangBlockWorkerWarp:
		return "gang=block worker=warp vector=simt-group"
	}
	return "gang=block vector=thread (worker ignored)"
}

// Config parameterizes a device instance.
type Config struct {
	// ConcreteType is what acc_get_device_type reports once a not_host
	// device is selected; implementation-defined per Fig. 12.
	ConcreteType Type
	// Backend is the translation target.
	Backend Backend
	// Mapping is the vendor's gang/worker/vector mapping.
	Mapping Mapping
	// DefaultGangs/DefaultWorkers/DefaultVectorLen apply when a compute
	// construct omits the corresponding clause.
	DefaultGangs     int
	DefaultWorkers   int
	DefaultVectorLen int
	// GarbageSeed seeds the uninitialized-memory pattern.
	GarbageSeed int64
	// InterleavePeriod is read by nothing: kernels yield at the
	// interpreter's seeded points (interp's kernelState.maybeYield), not
	// every N operations. It stays only because Vendor.SemanticsKey
	// prints the device config into every result-store key, so removing
	// the field would turn every existing store cold.
	InterleavePeriod int
	// LaunchOverheadCycles is added to each kernel's simulated cost.
	LaunchOverheadCycles int64
	// CorruptTransfers simulates failing device memory: one element of
	// every host→device transfer is flipped. The production harness
	// (§VII) uses this to model degraded Titan nodes.
	CorruptTransfers bool
}

// Defaults fills zero fields with production defaults.
func (c Config) Defaults() Config {
	if c.ConcreteType == None {
		c.ConcreteType = NotHost
	}
	if c.Backend.Name == "" {
		c.Backend = CUDA
	}
	if c.DefaultGangs == 0 {
		c.DefaultGangs = 8
	}
	if c.DefaultWorkers == 0 {
		c.DefaultWorkers = 4
	}
	if c.DefaultVectorLen == 0 {
		c.DefaultVectorLen = 32
	}
	if c.GarbageSeed == 0 {
		c.GarbageSeed = 0x5eed
	}
	if c.InterleavePeriod == 0 {
		c.InterleavePeriod = 16
	}
	if c.LaunchOverheadCycles == 0 {
		c.LaunchOverheadCycles = 2000
	}
	return c
}

// Stats aggregates device activity counters. The transfer, present-table,
// and queue counters feed the accv_device_*, accv_present_lookups_total,
// and accv_queue_waits_total metric series (docs/OBSERVABILITY.md).
type Stats struct {
	// Kernels counts kernel launches.
	Kernels atomic.Int64
	// ElemsCopiedIn/ElemsCopiedOut count elements moved host→device /
	// device→host; BytesCopiedIn/BytesCopiedOut the same traffic in
	// simulated bytes (elements × mem.SizeofBasic).
	ElemsCopiedIn  atomic.Int64
	ElemsCopiedOut atomic.Int64
	BytesCopiedIn  atomic.Int64
	BytesCopiedOut atomic.Int64
	// Allocations counts acc_malloc allocations.
	Allocations atomic.Int64
	// SimCycles is the simulated device clock.
	SimCycles atomic.Int64
	// PresentHits/PresentMisses classify present-table acquisitions:
	// a hit reuses an existing mapping (structured-lifetime sharing,
	// present_or_* fast path), a miss allocates a fresh device buffer.
	PresentHits   atomic.Int64
	PresentMisses atomic.Int64
	// QueueWaits counts async queue wait operations (wait directives,
	// acc_async_wait[_all], and the end-of-program drain).
	QueueWaits atomic.Int64
}

// Device is one simulated accelerator.
type Device struct {
	Cfg   Config
	Num   int // device number within its platform
	Stats Stats

	mu       sync.Mutex
	present  map[*mem.Buffer][]*DataMapping
	queues   map[int64]*Queue
	allocs   map[*mem.Buffer]bool // acc_malloc'd buffers
	garbageN int64                // allocation counter feeding the garbage seed
	shutdown bool
}

// New creates a device with the given configuration.
func New(cfg Config) *Device {
	return &Device{
		Cfg:     cfg.Defaults(),
		present: make(map[*mem.Buffer][]*DataMapping),
		queues:  make(map[int64]*Queue),
		allocs:  make(map[*mem.Buffer]bool),
	}
}

// Alloc implements acc_malloc: a fresh garbage-filled device buffer of the
// given element count.
func (d *Device) Alloc(elem mem.Kind, n int) *mem.Ptr {
	d.mu.Lock()
	d.garbageN++
	seed := d.Cfg.GarbageSeed + d.garbageN
	d.mu.Unlock()
	if n < 0 {
		n = 0
	}
	buf := mem.NewGarbageBuffer(elem, n, mem.Device, "acc_malloc", seed)
	d.mu.Lock()
	d.allocs[buf] = true
	d.mu.Unlock()
	d.Stats.Allocations.Add(1)
	return &mem.Ptr{Buf: buf}
}

// Free implements acc_free.
func (d *Device) Free(p mem.Ptr) error {
	if p.IsNil() {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.allocs[p.Buf] {
		return fmt.Errorf("acc_free of pointer not returned by acc_malloc (%s)", p.Buf)
	}
	delete(d.allocs, p.Buf)
	return nil
}

// Launch admits a kernel of `gangs` gangs: it refuses a launch past the
// backend's gang limit and counts the kernel. The caller runs the gangs.
func (d *Device) Launch(gangs int) error {
	if lim := d.Cfg.Backend.GangLimit; gangs > lim {
		return fmt.Errorf("num_gangs %d exceeds backend limit %d", gangs, lim)
	}
	d.Stats.Kernels.Add(1)
	return nil
}

// Queue returns (creating on demand) the async queue for the given tag.
func (d *Device) Queue(tag int64) *Queue {
	d.mu.Lock()
	defer d.mu.Unlock()
	if q, ok := d.queues[tag]; ok {
		return q
	}
	q := newQueue(tag)
	q.stats = &d.Stats
	d.queues[tag] = q
	return q
}

// TestAll reports whether every async queue has drained
// (acc_async_test_all). It tests every queue, so each one's first-Test
// mark is consumed whatever the map order.
func (d *Device) TestAll() bool {
	d.mu.Lock()
	qs := make([]*Queue, 0, len(d.queues))
	for _, q := range d.queues {
		qs = append(qs, q)
	}
	d.mu.Unlock()
	done := true
	for _, q := range qs {
		if !q.Test() {
			done = false
		}
	}
	return done
}

// WaitAll blocks until every async queue has drained and returns the first
// deferred error (acc_async_wait_all).
func (d *Device) WaitAll() error {
	d.mu.Lock()
	qs := make([]*Queue, 0, len(d.queues))
	for _, q := range d.queues {
		qs = append(qs, q)
	}
	d.mu.Unlock()
	var first error
	for _, q := range qs {
		if err := q.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Reset drains queues and clears all device state (acc_shutdown, and
// between test iterations).
func (d *Device) Reset() {
	_ = d.WaitAll()
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, q := range d.queues {
		q.Close()
	}
	d.queues = make(map[int64]*Queue)
	d.present = make(map[*mem.Buffer][]*DataMapping)
	d.allocs = make(map[*mem.Buffer]bool)
}

// PresentCount returns the number of live mappings (test hook).
func (d *Device) PresentCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, ms := range d.present {
		n += len(ms)
	}
	return n
}

// AddCycles charges simulated cycles to the device clock.
func (d *Device) AddCycles(n int64) {
	d.Stats.SimCycles.Add(n + d.Cfg.LaunchOverheadCycles)
}
