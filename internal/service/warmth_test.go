// The daemon's warmth check: a concurrent mixed workload against the full
// HTTP stack — compile, run, vet, suite, and sweep requests from many
// clients at once — must leave both the shared compile cache and the
// shared sweep memo with hits. A service that is not getting warmer
// across requests is misconfigured, whatever its latency.
package service

import (
	"net/http/httptest"
	"sync"
	"testing"
)

// vetHazardSource trips ACV003 so vet requests do real analysis work.
const vetHazardSource = `
int acc_test()
{
    int i;
    int a[16], b[16];
    for (i = 0; i < 16; i++) { a[i] = i; b[i] = -1; }
    #pragma acc parallel copyin(a[0:16]) copyout(b[0:16])
    {
        #pragma acc loop
        for (i = 0; i < 16; i++) b[i] = i * 2;
    }
    return (b[0] == 0);
}
`

// runServiceLoad drives perWorker requests from each of workers concurrent
// clients through the mixed endpoint schedule.
func runServiceLoad(t *testing.T, ts *httptest.Server, workers, perWorker int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// The schedule interleaves the cheap endpoints with a
				// suite every 10th and a sweep every 25th request, so the
				// shared cache and memo are exercised under contention.
				switch {
				case i%25 == 24:
					postJSON(t, ts.URL+"/v1/sweep",
						SweepRequest{Vendor: "pgi", Family: "wait", Iterations: 1}, nil)
				case i%10 == 9:
					postJSON(t, ts.URL+"/v1/suite",
						SuiteRequest{Compiler: "caps", Version: "3.3.4", Family: "update", Iterations: 1}, nil)
				case i%3 == 0:
					postJSON(t, ts.URL+"/v1/compile", CompileRequest{Source: figure1Source}, nil)
				case i%3 == 1:
					postJSON(t, ts.URL+"/v1/run", RunRequest{Source: figure1Source}, nil)
				default:
					postJSON(t, ts.URL+"/v1/vet", VetRequest{Source: vetHazardSource}, nil)
				}
			}
		}()
	}
	wg.Wait()
}

// TestMixedLoadWarmsSharedState runs a warm-up pass, the way a
// long-running daemon is seeded by earlier traffic, then the measured
// mixed load, and requires hits in both the shared compile cache and the
// shared sweep memo.
func TestMixedLoadWarmsSharedState(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	runServiceLoad(t, ts, 2, 26)
	runServiceLoad(t, ts, 4, 30)

	if hits, _, _ := s.CacheStats(); hits == 0 {
		t.Error("shared compile cache recorded zero hits under the mixed load")
	}
	if hits, _ := s.MemoStats(); hits == 0 {
		t.Error("shared sweep memo recorded zero hits under the mixed load")
	}
}
