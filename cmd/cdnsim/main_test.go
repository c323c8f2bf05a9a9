package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_<figure>.golden from the current output")

// TestQuickFiguresGolden pins `cdnsim -figure F -quick` byte for byte,
// at the flags' default seeds, for every figure of the table but scale
// (it prints wall times): a refactor of anything under a figure either
// leaves its file alone or shows up as a diff here.
func TestQuickFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every quick figure (~5 s)")
	}
	for _, f := range figures {
		figure := f.name
		if figure == "scale" {
			continue
		}
		t.Run(figure, func(t *testing.T) {
			opts := repro.QuickOptions()
			opts.Base.Seed = 1
			opts.TraceSeed = 99
			var got bytes.Buffer
			if err := run(context.Background(), &got, figure, opts); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "quick_"+figure+".golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("-figure %s -quick differs from %s (go test ./cmd/cdnsim -update rewrites it):\n%s", figure, path, firstDiff(got.Bytes(), want))
			}
		})
	}
}

// firstDiff names the first line at which got and want part ways.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return ""
}
