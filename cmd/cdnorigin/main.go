// Command cdnorigin is the cluster deployment's standalone origin: one
// process serving the primary copy of every site at /obj/{site}/{object}
// with conditional-GET support. It fetches the deployment scenario from
// the control plane, rebuilds it deterministically, registers, and
// serves until signalled.
//
// Chaos hooks: POST /admin/fault?mode=error|latency|blackhole injects a
// fault (the endpoint itself stays reachable so faults are always
// reversible); POST /admin/modify?site=&object= bumps an object version
// to exercise cache revalidation.
//
// Usage:
//
//	cdnorigin -addr 127.0.0.1:9301 -control http://127.0.0.1:9300 [-trace origin.jsonl]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/clusterd"
	"repro/internal/obs"
	"repro/internal/serverutil"
)

func main() {
	cfg := clusterd.OriginConfig{}
	addr := flag.String("addr", "127.0.0.1:9301", "listen address")
	control := flag.String("control", "http://127.0.0.1:9300", "control plane base URL")
	wait := flag.Duration("wait", 30*time.Second, "how long to wait for the control plane to come up")
	tracePath := flag.String("trace", "", "write the JSONL span stream to this file (cdntrace reads it)")
	flag.Int64Var(&cfg.MaxObjectBytes, "max-object-bytes", 0, "cap synthetic payload sizes (0 = 64 KiB)")
	quiet := flag.Bool("quiet", false, "suppress log output")
	flag.Parse()

	cfg.Addr = *addr
	if !*quiet {
		logger := log.New(os.Stderr, "cdnorigin: ", log.LstdFlags|log.Lmsgprefix)
		cfg.Logf = logger.Printf
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *control, *wait, *tracePath, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cdnorigin:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, control string, wait time.Duration, tracePath string, cfg clusterd.OriginConfig) error {
	if err := serverutil.WaitReady(ctx, nil, control+"/cluster/config", wait); err != nil {
		return fmt.Errorf("control plane at %s: %w", control, err)
	}
	params, err := clusterd.FetchParams(ctx, nil, control)
	if err != nil {
		return err
	}

	var tracer *obs.Tracer
	if tracePath != "" {
		tf, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer tf.Close()
		tracer = obs.NewTracer(tf)
		cfg.Tracer = tracer
	}

	o, err := clusterd.StartOrigin(params, cfg)
	if err != nil {
		return err
	}
	if err := o.Register(ctx, nil, control); err != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		o.Shutdown(sctx)
		return err
	}
	if cfg.Logf != nil {
		cfg.Logf("serving %d-edge scenario (seed %d) at %s", params.Edges, params.Seed, o.URL())
	}
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err = o.Shutdown(sctx)
	if tracer != nil {
		if ferr := tracer.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}
