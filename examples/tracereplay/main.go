// tracereplay: record a synthetic request trace once, then replay the
// identical traffic against different placements. This is how the
// paper's §5 comparisons are meaningful — "for reasons of fairness"
// every mechanism must see the same requests — and how a real CDN log,
// converted to the trace format, could drive the whole evaluation in
// place of the SURGE model.
//
//	go run ./examples/tracereplay
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	cfg := repro.QuickOptions().Base
	cfg.CapacityFrac = 0.10
	sc, err := repro.BuildScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}

	simCfg := repro.DefaultSim()
	simCfg.Requests = 120000
	simCfg.Warmup = 60000
	total := simCfg.Requests + simCfg.Warmup

	// Record the trace once.
	var buf bytes.Buffer
	w, err := repro.NewTraceWriter(&buf, repro.TraceHeader{
		Servers:        sc.Sys.N(),
		Sites:          sc.Sys.M(),
		ObjectsPerSite: cfg.Workload.ObjectsPerSite,
	})
	if err != nil {
		log.Fatal(err)
	}
	stream := sc.Stream(repro.NewRand(7))
	for i := 0; i < total; i++ {
		if err := w.Write(stream.Next()); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d requests (%d bytes, %.1f bytes/record)\n\n",
		w.Count(), buf.Len(), float64(buf.Len())/float64(w.Count()))

	// Replay the identical traffic against three placements.
	data := buf.Bytes()
	replay := func(name string, p *repro.Placement, useCache bool) {
		r, err := repro.NewTraceReader(bytes.NewReader(data))
		if err != nil {
			log.Fatal(err)
		}
		c := simCfg
		c.UseCache = useCache
		m, err := repro.SimulateTrace(context.Background(), sc, p, c, r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s mean RT %7.2f ms | cost %5.3f hops | local %5.1f%%\n",
			name, m.MeanRTMs, m.MeanHops, 100*m.LocalFraction())
	}

	place := func(s repro.Strategy) *repro.Placement {
		res, err := repro.Place(sc, repro.PlacementConfig{Strategy: s})
		if err != nil {
			log.Fatal(err)
		}
		return res.Placement
	}
	replay("replication", place(repro.StrategyReplication), false)
	replay("caching", place(repro.StrategyCaching), true)
	replay("hybrid", place(repro.StrategyHybrid), true)

	fmt.Println("\nEvery mechanism saw the byte-identical request sequence; the")
	fmt.Println("differences above are placement policy, nothing else.")
}
