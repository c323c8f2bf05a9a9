package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestKMedianQuality(t *testing.T) {
	opts := QuickOptions()
	rows, err := KMedianQuality(context.Background(), opts, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Sites == 0 {
			t.Fatalf("k=%d: no instances evaluated", r.K)
		}
		if r.MeanGreedyRatio < 1-1e-9 {
			t.Errorf("k=%d: greedy beat the optimum (%v)", r.K, r.MeanGreedyRatio)
		}
		// [14]'s "very good solution quality".
		if r.MeanGreedyRatio > 1.1 {
			t.Errorf("k=%d: greedy averaged %.3fx optimal", r.K, r.MeanGreedyRatio)
		}
		// Swap never loses to greedy.
		if r.MeanSwapRatio > r.MeanGreedyRatio+1e-9 {
			t.Errorf("k=%d: swap (%.4f) worse than greedy (%.4f)",
				r.K, r.MeanSwapRatio, r.MeanGreedyRatio)
		}
	}
	if out := FormatKMedianRows(rows); !strings.Contains(out, "greedy/opt") {
		t.Error("formatting lost the header")
	}
}
