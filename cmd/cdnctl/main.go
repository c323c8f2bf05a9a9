// Command cdnctl is the control-plane client: it talks to the
// /debug/control and /debug/health endpoints of the control plane —
// the -addr of `cdnd control` or of a one-process cdnd launch.
//
// Usage:
//
//	cdnctl -addr 127.0.0.1:8080 status      # controller state snapshot
//	cdnctl -addr 127.0.0.1:8080 reconcile   # force one reconcile round
//	cdnctl -addr 127.0.0.1:8080 health      # edge/origin health states
//	cdnctl -addr 127.0.0.1:9300 shards      # per-shard estimator state
//
// status prints a human summary (add -json for the raw Status);
// reconcile prints the round's report; health prints the active
// prober's view of every edge; shards prints the sharded estimator's
// per-shard key/observation counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/httpcdn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		code := 1
		if err == flag.ErrHelp || strings.HasPrefix(err.Error(), "usage:") {
			code = 2
		}
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "cdnctl:", err)
		}
		os.Exit(code)
	}
}

// run is the whole CLI behind a testable seam: args are the command-line
// arguments after the program name, out receives all normal output.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cdnctl", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:8080", "address serving /debug/control (cdnd's -addr)")
		raw     = fs.Bool("json", false, "print the raw JSON response")
		timeout = fs.Duration("timeout", 10*time.Second, "HTTP timeout")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cdnctl [flags] status|reconcile|health|shards\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("usage: expected exactly one command")
	}
	client := &http.Client{Timeout: *timeout}
	switch cmd := fs.Arg(0); cmd {
	case "status":
		return status(client, *addr, *raw, out)
	case "reconcile":
		return reconcile(client, *addr, *raw, out)
	case "health":
		return health(client, *addr, *raw, out)
	case "shards":
		return shards(client, *addr, *raw, out)
	default:
		return fmt.Errorf("unknown command %q (want status, reconcile, health or shards)", cmd)
	}
}

// fetch requests url and decodes the JSON body into v, keeping the raw
// bytes for -json passthrough.
func fetch(client *http.Client, method, url string, v any) ([]byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, json.Unmarshal(body, v)
}

func status(client *http.Client, addr string, raw bool, out io.Writer) error {
	var st control.Status
	body, err := fetch(client, http.MethodGet, "http://"+addr+"/debug/control", &st)
	if err != nil {
		return err
	}
	if raw {
		out.Write(body)
		return nil
	}
	fmt.Fprintf(out, "rounds     %d (applied %d, skipped %d, noop %d, no-signal %d)\n",
		st.Rounds, st.Applied, st.Skipped, st.Noops, st.NoSignal)
	fmt.Fprintf(out, "observed   %d requests\n", st.Observed)
	if st.Model != "" {
		fmt.Fprintf(out, "model      %s\n", st.Model)
	}
	fmt.Fprintf(out, "replicas   %d\n", st.Replicas)
	if st.ChurnRate > 0 || st.StalePlacementFrac > 0 {
		fmt.Fprintf(out, "churn      rate %.4f births+deaths/site/window, %.1f%% of replicated sites stale\n",
			st.ChurnRate, 100*st.StalePlacementFrac)
	}
	for i, sites := range st.Placement {
		fmt.Fprintf(out, "  edge %d: %v\n", i, sites)
	}
	if st.Last != nil {
		fmt.Fprintf(out, "last round %d: %s, +%d/-%d replicas, net benefit %.4f (old %.4f → new %.4f)\n",
			st.Last.Round, st.Last.Outcome,
			len(st.Last.Diff.Created), len(st.Last.Diff.Dropped),
			st.Last.NetBenefit, st.Last.OldCost, st.Last.NewCost)
		if st.Last.Engine != "" {
			fmt.Fprintf(out, "           engine %s, placement %.1f ms\n",
				st.Last.Engine, st.Last.PlacementMs)
		}
		if len(st.Last.Excluded) > 0 {
			fmt.Fprintf(out, "           excluded unhealthy edges %v\n", st.Last.Excluded)
		}
	}
	if st.Pending != nil {
		fmt.Fprintf(out, "pending    +%d/-%d replicas withheld by hysteresis (%.3f GB·hops)\n",
			len(st.Pending.Created), len(st.Pending.Dropped), st.Pending.TransferGBHops)
	}
	return nil
}

func reconcile(client *http.Client, addr string, raw bool, out io.Writer) error {
	var rep control.Report
	body, err := fetch(client, http.MethodPost, "http://"+addr+"/debug/control/reconcile", &rep)
	if err != nil {
		return err
	}
	if raw {
		out.Write(body)
		return nil
	}
	fmt.Fprintf(out, "round %d: %s\n", rep.Round, rep.Outcome)
	fmt.Fprintf(out, "  window     %d requests\n", rep.WindowRequests)
	fmt.Fprintf(out, "  plan       +%d/-%d replicas, %.3f GB·hops transfer, %d deferred\n",
		len(rep.Diff.Created), len(rep.Diff.Dropped), rep.Diff.TransferGBHops, rep.CreatesDeferred)
	fmt.Fprintf(out, "  objective  %.4f → %.4f hops/request (net benefit %.4f)\n",
		rep.OldCost, rep.NewCost, rep.NetBenefit)
	if rep.Engine != "" {
		fmt.Fprintf(out, "  engine     %s (%.1f ms placement)\n", rep.Engine, rep.PlacementMs)
	}
	if rep.Model != "" {
		fmt.Fprintf(out, "  model      %s\n", rep.Model)
	}
	if len(rep.Excluded) > 0 {
		fmt.Fprintf(out, "  excluded   unhealthy edges %v\n", rep.Excluded)
	}
	return nil
}

func health(client *http.Client, addr string, raw bool, out io.Writer) error {
	var hr httpcdn.HealthReport
	body, err := fetch(client, http.MethodGet, "http://"+addr+"/debug/health", &hr)
	if err != nil {
		return err
	}
	if raw {
		out.Write(body)
		return nil
	}
	print := func(ss []httpcdn.HealthStatus) {
		for _, s := range ss {
			fmt.Fprintf(out, "%-8s %4d  %-8s fails=%d ejections=%d readmissions=%d",
				s.Kind, s.ID, s.State, s.ConsecutiveFailures, s.Ejections, s.Readmissions)
			if s.RetryInMs > 0 {
				fmt.Fprintf(out, " retry-in=%dms", s.RetryInMs)
			}
			fmt.Fprintln(out)
		}
	}
	print(hr.Edges)
	print(hr.Origins)
	return nil
}

func shards(client *http.Client, addr string, raw bool, out io.Writer) error {
	var page control.ShardsPage
	body, err := fetch(client, http.MethodGet, "http://"+addr+"/debug/control/shards", &page)
	if err != nil {
		return err
	}
	if raw {
		out.Write(body)
		return nil
	}
	fmt.Fprintf(out, "%d shards x %d vnodes over %d (edge, site) keys\n",
		len(page.Shards), page.VNodes, page.KeySpace)
	var observed int64
	for _, sh := range page.Shards {
		observed += sh.Observed
	}
	for _, sh := range page.Shards {
		pct := 0.0
		if observed > 0 {
			pct = 100 * float64(sh.Observed) / float64(observed)
		}
		fmt.Fprintf(out, "shard %2d  keys=%-5d observed=%-10d (%5.1f%%) rolls=%-6d rate/window=%.1f\n",
			sh.Shard, sh.Keys, sh.Observed, pct, sh.Rolls, sh.RatePerWindow)
	}
	return nil
}
