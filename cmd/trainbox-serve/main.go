// Command trainbox-serve runs the multi-tenant training front-end:
// tenants POST training jobs to /v1/jobs, the server admits them under
// per-tenant quotas, queues them priority-first with fair-share across
// tenants, runs them on the shared prep-pool, and sheds overload with
// 429 + Retry-After. A job that finds every run slot taken preempts the
// lowest-priority running job it outranks; the pool moves devices
// between jobs by priority tier.
//
//	trainbox-serve -devices 4 -max-running 4 -addr 127.0.0.1:8080
//
// With -addr ending in ":0" the kernel picks the port; pass -addr-file
// to have the resolved address written out for scripts (the CI serving
// gate boots the server exactly this way).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trainbox/internal/metrics"
	"trainbox/internal/serve"
	"trainbox/internal/units"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 = kernel-assigned)")
	addrFile := flag.String("addr-file", "", "write the resolved listen address to this file")
	devices := flag.Int("devices", 4, "pooled preparation devices (0 = host-only preparation)")
	corpus := flag.Int("corpus", 64, "shared corpus size in items")
	seed := flag.Int64("seed", 11, "corpus seed")
	maxRunning := flag.Int("max-running", 4, "concurrent training jobs")
	queueLimit := flag.Int("queue-limit", 64, "queue depth before shedding")
	quota := flag.Int("tenant-quota", 8, "max live jobs per tenant")
	cacheMB := flag.Int("cache", 0, "shared decode-cache budget in MB (0 = no cache)")
	flag.Parse()
	if *devices < 0 || *cacheMB < 0 {
		fmt.Fprintln(os.Stderr, "trainbox-serve: -devices and -cache must be ≥ 0")
		os.Exit(2)
	}

	if err := run(*addr, *addrFile, *devices, *corpus, *seed, *maxRunning,
		*queueLimit, *quota, *cacheMB); err != nil {
		fmt.Fprintln(os.Stderr, "trainbox-serve:", err)
		os.Exit(1)
	}
}

func run(addr, addrFile string, devices, corpus int, seed int64,
	maxRunning, queueLimit, quota, cacheMB int) error {
	reg := metrics.NewRegistry()
	runner, pool, err := serve.NewTrainBackend(devices, corpus, seed, reg)
	if err != nil {
		return err
	}
	if cacheMB > 0 {
		runner.EnableCache(units.Bytes(cacheMB)*units.MB, reg)
	}
	opts := []serve.Option{
		serve.WithRunner(runner),
		serve.WithMetrics(reg),
		serve.WithMaxRunning(maxRunning),
		serve.WithQueueLimit(queueLimit),
		serve.WithTenantQuota(quota),
	}
	if pool != nil {
		opts = append(opts, serve.WithPool(pool))
	}
	srv, err := serve.NewServer(opts...)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	resolved := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(resolved), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("trainbox-serve listening on %s (%d devices, %d run slots, queue %d, quota %d)\n",
		resolved, devices, maxRunning, queueLimit, quota)

	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Printf("trainbox-serve: %v, draining\n", sig)
	case err := <-errCh:
		_ = srv.Close()
		return err
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return srv.Close()
}
