// Command cdntrace analyzes the JSONL span streams that cdnd -trace and
// cdnsim -trace write (one schema, internal/obs Spans), and the
// decision-audit pages the control plane serves at /debug/control/audit.
//
// For span streams it prints per-kind latency quantiles, the
// retry/failover breakdown of the serving path, and the critical path
// of the N slowest request trees — including multi-hop requests
// stitched across edges by the Traceparent header. With -audit it
// summarizes the controller's reconcile records: what each round saw,
// proposed and decided. With -check it validates every span against
// the schema and exits non-zero on any violation — a record that is not
// a span included — which is how CI keeps the trace format honest.
//
// Usage:
//
//	cdnd -trace run.jsonl ... && cdntrace run.jsonl
//	cdntrace -slowest 5 run.jsonl sim.jsonl
//	cdntrace -check run.jsonl
//	curl -s http://127.0.0.1:8080/debug/control/audit > audit.json
//	cdntrace -audit audit.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/control"
	"repro/internal/traceanalysis"
)

func main() {
	var (
		slowest = flag.Int("slowest", 3, "print the critical path of the N slowest traces")
		audit   = flag.String("audit", "", "summarize a /debug/control/audit JSON document")
		check   = flag.Bool("check", false, "validate span schema and parent links; exit 1 on violations")
	)
	flag.Parse()

	if *audit == "" && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "cdntrace: need trace JSONL files (or - for stdin), or -audit FILE")
		os.Exit(2)
	}
	if err := run(flag.Args(), *slowest, *audit, *check); err != nil {
		fmt.Fprintln(os.Stderr, "cdntrace:", err)
		os.Exit(1)
	}
}

func run(paths []string, slowest int, auditPath string, check bool) error {
	var c traceanalysis.Corpus
	for _, path := range paths {
		if err := load(&c, path); err != nil {
			return err
		}
	}
	if len(paths) > 0 {
		fmt.Printf("loaded %d spans from %s\n", len(c.Spans), strings.Join(paths, ", "))
		if check {
			if errs := c.Check(); len(errs) > 0 {
				for _, err := range errs {
					fmt.Fprintln(os.Stderr, "cdntrace: check:", err)
				}
				return fmt.Errorf("%d schema violations", len(errs))
			}
			fmt.Println("check: all spans valid, all parents resolved")
		}
		report(&c, slowest)
	}
	if auditPath != "" {
		if err := reportAudit(auditPath); err != nil {
			return err
		}
	}
	return nil
}

func load(c *traceanalysis.Corpus, path string) error {
	if path == "-" {
		return c.Load(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := c.Load(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func report(c *traceanalysis.Corpus, slowest int) {
	stats := c.StatsByKind()
	if len(stats) == 0 {
		fmt.Println("\nno spans in the stream (was the run traced with spans enabled?)")
		return
	}
	fmt.Println("\nspan latency by kind (ms):")
	fmt.Println("kind        count      p50      p90      p99      max")
	for _, st := range stats {
		fmt.Printf("%-9s %7d %8.2f %8.2f %8.2f %8.2f\n",
			st.Kind, st.Count, st.P50Ms, st.P90Ms, st.P99Ms, st.MaxMs)
	}

	rt := c.Retry()
	if rt.UpstreamAttempts > 0 {
		fmt.Printf("\nupstream attempts: %d", rt.UpstreamAttempts)
		if rt.AttemptTagged > 0 {
			fmt.Printf(" (%.1f%% succeeded first try)", 100*float64(rt.FirstAttemptOK)/float64(rt.AttemptTagged))
		}
		fmt.Println()
		fmt.Printf("retry backoffs: %d, %.2f ms total wait on the serving path\n",
			rt.Retries, rt.RetryWaitMs)
		hops := make([]string, 0, len(rt.FailoverHops))
		for h := range rt.FailoverHops {
			hops = append(hops, h)
		}
		sort.Strings(hops)
		for _, h := range hops {
			label := "failover hop"
			if h == "0" {
				label = "preferred source"
			}
			fmt.Printf("  %s %s: %d fetches\n", label, h, rt.FailoverHops[h])
		}
		if rt.SkippedEjected > 0 {
			fmt.Printf("  health: %d ejected candidates skipped during source selection\n",
				rt.SkippedEjected)
		}
	}

	traces := c.BuildTraces()
	multiHop := 0
	for _, tr := range traces {
		if hasRemoteServe(tr.Root, tr.Root.Edge) {
			multiHop++
		}
	}
	fmt.Printf("\n%d traces (%d stitched across multiple components)\n", len(traces), multiHop)
	if slowest > len(traces) {
		slowest = len(traces)
	}
	for i := 0; i < slowest; i++ {
		tr := traces[i]
		fmt.Printf("\nslowest #%d: trace %s — %.2f ms, %d spans", i+1, tr.ID,
			float64(tr.Root.DurUs)/1000, tr.Spans)
		if tr.Orphans > 0 {
			fmt.Printf(" (%d orphaned)", tr.Orphans)
		}
		fmt.Println()
		for depth, n := range tr.CriticalPath() {
			fmt.Printf("  %s%s\n", strings.Repeat("  ", depth), describe(n))
		}
	}
}

// hasRemoteServe reports whether any non-root span in the tree was
// recorded by a different component than the root — the signature of a
// request stitched across servers.
func hasRemoteServe(n *traceanalysis.Node, rootEdge int) bool {
	for _, ch := range n.Children {
		if ch.Edge != rootEdge || hasRemoteServe(ch, rootEdge) {
			return true
		}
	}
	return false
}

func describe(n *traceanalysis.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8.2f ms  edge=%d site=%d obj=%d",
		n.Kind, float64(n.DurUs)/1000, n.Edge, n.Site, n.Object)
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, n.Attrs[k])
	}
	return b.String()
}

func reportAudit(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var page control.AuditPage
	if err := json.NewDecoder(f).Decode(&page); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("\ncontrol audit: %d reconcile records\n", len(page.Records))
	counts := map[control.Outcome]int{}
	for _, rec := range page.Records {
		counts[rec.Outcome]++
	}
	for _, o := range []control.Outcome{control.OutcomeApplied, control.OutcomeSkipped,
		control.OutcomeNoop, control.OutcomeNoSignal} {
		if counts[o] > 0 {
			fmt.Printf("  %-10s %d\n", o, counts[o])
		}
	}
	for _, rec := range page.Records {
		fmt.Printf("\nround %d @ %s (%.1f ms, window %d reqs", rec.Round, rec.When,
			rec.DurationMs, rec.WindowRequests)
		if rec.DemandHash != "" {
			fmt.Printf(", demand %s", rec.DemandHash)
		}
		fmt.Println(")")
		fmt.Printf("  %s\n", rec.Verdict)
		if len(rec.Proposed) > 0 {
			fmt.Printf("  proposed %d creations; top benefits:\n", len(rec.Proposed))
			for i, p := range rec.Proposed {
				if i == 3 {
					fmt.Printf("    ... %d more\n", len(rec.Proposed)-i)
					break
				}
				fmt.Printf("    site %d → edge %d (benefit %.4f)\n", p.Site, p.Server, p.Benefit)
			}
		}
		if len(rec.FrozenSites) > 0 {
			fmt.Printf("  frozen sites (cooldown): %v\n", rec.FrozenSites)
		}
		if len(rec.ExcludedEdges) > 0 {
			fmt.Printf("  excluded edges (health): %v\n", rec.ExcludedEdges)
		}
		if rec.CreatesDeferred > 0 {
			fmt.Printf("  %d creations deferred for capacity\n", rec.CreatesDeferred)
		}
		if len(rec.EngineSteps) > 0 {
			pops, stale := 0, 0
			for _, st := range rec.EngineSteps {
				pops += st.HeapPops
				stale += st.StaleReevals
			}
			fmt.Printf("  engine: %d steps, %d heap pops, %d stale re-evaluations\n",
				len(rec.EngineSteps), pops, stale)
		}
	}
	return nil
}
