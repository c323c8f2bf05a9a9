package clusterd_test

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/clusterd"
	"repro/internal/httpcdn"
)

// ExampleStartLocal is the §3.3 consistency discussion over real HTTP. It
// boots a deployment, caches an object at an edge, modifies it at the
// origin and fetches it again. The edge serves cached bodies
// unconditionally (weak consistency), so after the modification it still
// serves version 0: the stale copy the paper's λ fraction models, whose
// requests the simulator sends past the cache to a replicator.
func ExampleStartLocal() {
	params := clusterd.Params{Edges: 3, Seed: 1, CapacityFrac: 0.3}
	// An hour between reconciles keeps the initial placement in place.
	l, err := clusterd.StartLocal(params, clusterd.ControlConfig{Interval: time.Hour},
		clusterd.OriginConfig{}, clusterd.EdgeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	// A site no edge replicates: every fetch goes through edge 0's cache.
	p, _ := l.Control.Placement()
	site := -1
	for j := 0; site < 0; j++ {
		site = j
		for i := 0; i < params.Edges; i++ {
			if p.Has(i, j) {
				site = -1
			}
		}
	}
	const object = 1
	edge := l.Edges[0]
	step := func(label string) {
		res, err := httpcdn.Get(context.Background(), http.DefaultClient, edge.URL(), site, object)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s source=%-6s version=%d\n", label, res.Source, res.Version)
	}
	step("first fetch (cold):")
	step("second fetch (cached):")
	fmt.Println("  -> origin modifies the object (version 0 -> 1)")
	l.Origin.ModifyObject(site, object)
	step("third fetch:")

	st := edge.Stats()
	fmt.Printf("edge stats: hits=%d origin fetches=%d\n", st.CacheHit, st.OriginFetch)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	l.Shutdown(ctx)
	cancel()
	// Output:
	// first fetch (cold):      source=origin version=0
	// second fetch (cached):   source=cache  version=0
	//   -> origin modifies the object (version 0 -> 1)
	// third fetch:             source=cache  version=0
	// edge stats: hits=2 origin fetches=1
}
