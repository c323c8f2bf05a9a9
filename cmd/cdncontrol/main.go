// Command cdncontrol is the cluster deployment's control plane: it owns
// the deployment scenario, admits edges and the origin into the roster
// (POST /cluster/register), ingests demand reports into a sharded EWMA
// estimator, reconciles placement on a timer against the aggregated
// estimate, actively probes member health, and pushes placement swaps
// to the edges.
//
// Usage:
//
//	cdncontrol -addr 127.0.0.1:9300 -edges 2 -seed 1 -interval 2s
//
// Debug endpoints: /debug/control (status), /debug/control/audit,
// /debug/control/shards (per-shard estimator state, cdnctl shards),
// /debug/health (probe-driven member view), /metrics, /cluster/members.
//
// SIGINT/SIGTERM drain in-flight requests and exit.
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
	"repro/internal/lrumodel"
)

func main() {
	params := clusterd.DefaultParams()
	cfg := clusterd.ControlConfig{}
	addr := flag.String("addr", "127.0.0.1:9300", "listen address")
	flag.IntVar(&params.Edges, "edges", params.Edges, "number of edge servers the scenario expects")
	flag.Uint64Var(&params.Seed, "seed", params.Seed, "scenario seed (topology, workload, capacities)")
	flag.Float64Var(&params.CapacityFrac, "capacity", params.CapacityFrac, "per-edge storage as a fraction of total content bytes")
	flag.IntVar(&cfg.Shards, "shards", clusterd.DefaultShards, "estimator shard count")
	flag.DurationVar(&cfg.Interval, "interval", 2*time.Second, "reconcile cadence")
	flag.DurationVar(&cfg.ReportEvery, "report-every", clusterd.DefaultReportEvery, "demand-report cadence handed to edges")
	flag.DurationVar(&cfg.ProbeEvery, "probe-every", clusterd.DefaultProbeEvery, "active health probe cadence")
	flag.DurationVar(&cfg.ProbeTimeout, "probe-timeout", clusterd.DefaultProbeTimeout, "per-probe timeout")
	flag.IntVar(&cfg.FailThreshold, "fail-threshold", 3, "consecutive probe failures before ejection")
	flag.DurationVar(&cfg.EjectFor, "eject-for", 2*time.Second, "tracker backoff window after ejection")
	flag.Float64Var(&cfg.Hysteresis, "hysteresis", 0, "reconcile hysteresis (<0 disables)")
	flag.IntVar(&cfg.CooldownRounds, "cooldown", 0, "reconcile cooldown rounds (<0 disables)")
	flag.StringVar(&cfg.Model, "model", "", "analytical hit-ratio model placement optimizes with: eq1 (default), che or random")
	quiet := flag.Bool("quiet", false, "suppress log output")
	flag.Parse()

	if _, err := lrumodel.ParseModelKind(cfg.Model); err != nil {
		fmt.Fprintln(os.Stderr, "cdncontrol: -model:", err)
		os.Exit(2)
	}
	cfg.Addr = *addr
	if !*quiet {
		logger := log.New(os.Stderr, "cdncontrol: ", log.LstdFlags|log.Lmsgprefix)
		cfg.Logf = logger.Printf
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, params, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cdncontrol:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, params clusterd.Params, cfg clusterd.ControlConfig) error {
	cp, err := clusterd.StartControl(params, cfg)
	if err != nil {
		return err
	}
	if cfg.Logf != nil {
		cfg.Logf("serving %d-edge scenario (seed %d) at %s", params.Edges, params.Seed, cp.URL())
	}
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return cp.Shutdown(sctx)
}
