package device

import (
	"testing"

	"accv/internal/mem"
)

// BenchmarkBufferLoadStore measures the striped-lock element access path —
// the hottest operation in every kernel.
func BenchmarkBufferLoadStore(b *testing.B) {
	buf := mem.NewBuffer(mem.KInt, 1024, mem.Device, "b")
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			v, _ := buf.Load(i & 1023)
			_ = buf.Store(i&1023, mem.Int(v.AsInt()+1))
			i++
		}
	})
}

// BenchmarkPresentLookup measures the present-table hit path consulted by
// every present_or_* clause.
func BenchmarkPresentLookup(b *testing.B) {
	d := New(Config{})
	hosts := make([]*mem.Buffer, 16)
	for i := range hosts {
		hosts[i] = mem.NewBuffer(mem.KInt, 256, mem.Host, "h")
		if _, _, err := d.MapIn(hosts[i], 0, 256, false); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.Lookup(hosts[i&15], 10, 100) == nil {
			b.Fatal("lookup miss")
		}
	}
}

// BenchmarkMapInUnmap measures a full data-region entry/exit round trip
// including the copyin and copyout transfers.
func BenchmarkMapInUnmap(b *testing.B) {
	d := New(Config{})
	host := mem.NewBuffer(mem.KInt, 1024, mem.Host, "h")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := d.MapIn(host, 0, 1024, true)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Unmap(m, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1024*2, "elems-moved/op")
}

// BenchmarkQueueThroughput measures async-queue dispatch, the per-operation
// cost of every async clause.
func BenchmarkQueueThroughput(b *testing.B) {
	d := New(Config{})
	q := d.Queue(1)
	done := make(chan struct{}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Enqueue(func() error { return nil })
	}
	q.Enqueue(func() error { done <- struct{}{}; return nil })
	<-done
	_ = q.Wait()
}
