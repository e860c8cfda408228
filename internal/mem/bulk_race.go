//go:build race

package mem

import "sync/atomic"

// bulkCopyWords under the race detector keeps every word access atomic, so
// instrumented builds stay warning-free against the lock-free atomic
// element accesses of Load/Store/LoadWordInto/StoreWord. The plain-memmove
// fast path lives in the !race twin (bulk_norace.go).
func bulkCopyWords(dst, src []uint64) {
	for i := range src {
		atomic.StoreUint64(&dst[i], atomic.LoadUint64(&src[i]))
	}
}
