// Flag registration for cmd/accvd, kept beside Config so the flag set
// and the documented defaults cannot drift apart. The docs contract test
// cross-checks FlagNames against docs/SERVICE.md.
package service

import (
	"flag"
	"fmt"
	"runtime"
	"time"
)

// flagDefs is the single source of truth for accvd's flags: name, usage,
// and which Config field each binds to (via RegisterFlags).
var flagDefs = []struct{ name, usage string }{
	{"addr", "listen address"},
	{"cache-cap", "compiled-program cache capacity in entries (0 = default 4096)"},
	{"client-inflight", "per-client in-flight request quota (0 = default 32, negative = unlimited)"},
	{"max-inflight-ops", "aggregate simulated-op budget held by admitted requests (0 = default 2^38, negative = unlimited)"},
	{"j", "default suite parallelism when a request does not set one (0 = GOMAXPROCS)"},
	{"drain-timeout", "graceful-drain deadline on SIGTERM/SIGINT"},
	{"store", "persistent result-store directory backing sweeps (empty = in-memory memo only; docs/STORE.md)"},
	{"store-cap", "result-store entry cap, LRU-evicted past it (0 = default 65536, negative = unbounded)"},
}

// FlagNames lists accvd's flag names — the set docs/SERVICE.md must
// document (checked by the docs contract test).
func FlagNames() []string {
	out := make([]string, len(flagDefs))
	for i, d := range flagDefs {
		out[i] = d.name
	}
	return out
}

// RegisterFlags binds cmd/accvd's flags onto c using fs. Call before
// fs.Parse; c's fields then hold the parsed values.
func (c *Config) RegisterFlags(fs *flag.FlagSet) {
	usage := map[string]string{}
	for _, d := range flagDefs {
		usage[d.name] = d.usage
	}
	fs.StringVar(&c.Addr, "addr", ":8080", usage["addr"])
	fs.IntVar(&c.CacheCap, "cache-cap", 0, usage["cache-cap"])
	fs.IntVar(&c.MaxClientInflight, "client-inflight", 0, usage["client-inflight"])
	fs.Int64Var(&c.MaxInflightOps, "max-inflight-ops", 0, usage["max-inflight-ops"])
	fs.IntVar(&c.DefaultParallelism, "j", 0,
		fmt.Sprintf("%s (this host: %d)", usage["j"], runtime.GOMAXPROCS(0)))
	fs.DurationVar(&c.DrainTimeout, "drain-timeout", 30*time.Second, usage["drain-timeout"])
	fs.StringVar(&c.StoreDir, "store", "", usage["store"])
	fs.IntVar(&c.StoreCap, "store-cap", 0, usage["store-cap"])
}
