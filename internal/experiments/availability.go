package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// AvailabilityRow is one (mechanism, failure level) measurement.
type AvailabilityRow struct {
	Mechanism      Mechanism
	FailedOrigins  int
	FailedServers  int
	Unavailability float64
	StaleRiskFrac  float64
	MeanRTMs       float64
}

// AvailabilityComparison quantifies the paper's §1 availability argument
// ("a generic caching scheme offers no guarantees on content
// availability") by crashing progressively more origins — plus a couple
// of CDN servers — after the caches are warm, and measuring how much
// traffic each mechanism can still serve. The crash runner is
// sequential, so opts.Sim.Parallelism does not apply: the rows are the
// same at any value.
func AvailabilityComparison(ctx context.Context, opts Options, originFailures []int, failedServers int) ([]AvailabilityRow, error) {
	sc, err := scenario.Build(opts.Base)
	if err != nil {
		return nil, err
	}
	mechs := []Mechanism{MechReplication, MechCaching, MechHybrid}
	type job struct {
		mech    Mechanism
		origins int
	}
	var jobs []job
	for _, k := range originFailures {
		for _, mech := range mechs {
			jobs = append(jobs, job{mech, k})
		}
	}
	rows := make([]AvailabilityRow, len(jobs))
	err = parallelFor(len(jobs), func(ji int) error {
		jb := jobs[ji]
		p, useCache, _, err := buildPlacement(sc, jb.mech, opts.Model)
		if err != nil {
			return err
		}
		simCfg := opts.Sim
		simCfg.UseCache = useCache
		simCfg.KeepResponseTimes = false
		simCfg.Parallelism = 1
		// The same failure draw for every mechanism at a level, so the
		// comparison is apples to apples.
		servers, origins, err := randomCrashes(sc, failedServers, jb.origins, xrand.New(opts.TraceSeed+uint64(jb.origins)))
		if err != nil {
			return err
		}
		m, err := sim.RunWithCrashes(ctx, sc, p, simCfg, servers, origins, xrand.New(opts.TraceSeed))
		if err != nil {
			return err
		}
		staleFrac := 0.0
		if m.Requests > 0 {
			staleFrac = float64(m.StaleRisk) / float64(m.Requests)
		}
		rows[ji] = AvailabilityRow{
			Mechanism:      jb.mech,
			FailedOrigins:  jb.origins,
			FailedServers:  failedServers,
			Unavailability: m.Unavailability(),
			StaleRiskFrac:  staleFrac,
			MeanRTMs:       m.MeanRTMs,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// randomCrashes draws distinct failed servers, then distinct failed
// origins, deterministically from r. Failing more servers or origins
// than exist is an error, and so is failing every server.
func randomCrashes(sc *scenario.Scenario, servers, origins int, r *xrand.Source) (down, dead []int, err error) {
	n, m := sc.Sys.N(), sc.Sys.M()
	if servers < 0 || servers >= n {
		return nil, nil, fmt.Errorf("experiments: %d failed servers of %d (at least one must survive)", servers, n)
	}
	if origins < 0 || origins > m {
		return nil, nil, fmt.Errorf("experiments: %d failed origins of %d", origins, m)
	}
	if servers > 0 {
		down = r.Perm(n)[:servers]
	}
	if origins > 0 {
		dead = r.Perm(m)[:origins]
	}
	return down, dead, nil
}

// FormatAvailabilityRows renders the availability comparison.
func FormatAvailabilityRows(rows []AvailabilityRow) string {
	var b strings.Builder
	b.WriteString("§1 grounded — availability under origin/server failures\n")
	b.WriteString("mechanism     origins-down  servers-down  unavailable  stale-risk  mean RT (ms)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-13s %12d %13d %12.4f %11.4f %13.2f\n",
			r.Mechanism, r.FailedOrigins, r.FailedServers,
			r.Unavailability, r.StaleRiskFrac, r.MeanRTMs)
	}
	return b.String()
}
