// Command accvd is the long-running validation daemon: an HTTP+JSON
// service over the accv facade serving compile, run, vet, suite (blocking
// and streaming), and sweep requests to many concurrent clients. Run,
// suite and sweep requests share one compiled-program cache, and sweeps
// one sweep memo table.
//
// Usage:
//
//	accvd [-addr :8080] [-cache-cap N] [-client-inflight N]
//	      [-max-inflight-ops N] [-j N] [-drain-timeout 30s]
//	      [-store DIR] [-store-cap N]
//
// On SIGTERM or SIGINT the daemon drains gracefully: new work requests
// are refused with 503 while in-flight requests finish (bounded by
// -drain-timeout), then the listener shuts down. /healthz and /metrics
// stay reachable throughout the drain so operators can watch it.
//
// The API reference is docs/SERVICE.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"accv/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	var cfg service.Config
	fs := flag.NewFlagSet("accvd", flag.ExitOnError)
	cfg.RegisterFlags(fs)
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	logger := log.New(os.Stderr, "accvd: ", log.LstdFlags)
	srv, err := service.New(cfg)
	if err != nil {
		logger.Printf("startup: %v", err)
		return 2
	}
	httpSrv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", cfg.Addr)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-errCh:
		logger.Printf("serve: %v", err)
		return 1
	case sig := <-sigCh:
		logger.Printf("received %s; draining (timeout %s)", sig, cfg.DrainTimeout)
	}
	signal.Stop(sigCh)

	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("drain deadline expired with requests still in flight: %v", err)
	} else {
		logger.Printf("drained; shutting down")
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "accvd: shutdown: %v\n", err)
		return 1
	}
	return 0
}
