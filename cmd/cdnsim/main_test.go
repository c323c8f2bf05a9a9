package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_<figure>.golden from the current output")

// TestQuickFiguresGolden pins `cdnsim -figure F -quick` byte for byte,
// at the flags' default seeds, for every figure of the table but scale
// (it prints wall times): a refactor of anything under a figure either
// leaves its file alone or shows up as a diff here. Each figure renders
// a second time at -parallelism 3 against the same file, since the flag
// promises identical results at any value.
func TestQuickFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every quick figure (~10 s)")
	}
	render := func(t *testing.T, figure string, parallelism int) []byte {
		opts := experiments.QuickOptions()
		opts.Base.Seed = 1
		opts.TraceSeed = 99
		opts.Sim.Parallelism = parallelism
		var got bytes.Buffer
		if err := run(context.Background(), &got, figure, opts); err != nil {
			t.Fatal(err)
		}
		return got.Bytes()
	}
	for _, f := range figures {
		figure := f.name
		if figure == "scale" {
			continue
		}
		t.Run(figure, func(t *testing.T) {
			path := filepath.Join("testdata", "quick_"+figure+".golden")
			got := render(t, figure, 0)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("-figure %s -quick differs from %s (go test ./cmd/cdnsim -update rewrites it):\n%s", figure, path, firstDiff(got, want))
			}
			t.Run("parallelism=3", func(t *testing.T) {
				if got := render(t, figure, 3); !bytes.Equal(got, want) {
					t.Errorf("-figure %s -quick -parallelism 3 differs from %s:\n%s", figure, path, firstDiff(got, want))
				}
			})
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

// TestNegativeOverridesExit1: a negative (or NaN) -requests, -warmup,
// -objects, -theta or -parallelism exits 1 with an error naming the
// flag, before any figure runs; only 0 means "keep the default".
func TestNegativeOverridesExit1(t *testing.T) {
	args, cmdLine, stderr := os.Args, flag.CommandLine, os.Stderr
	t.Cleanup(func() { os.Args, flag.CommandLine, os.Stderr = args, cmdLine, stderr })
	for _, tc := range []struct{ flag, val string }{
		{"requests", "-5"}, {"warmup", "-1"}, {"objects", "-3"}, {"theta", "-2"}, {"theta", "NaN"},
		{"parallelism", "-1"},
	} {
		t.Run(tc.flag+"="+tc.val, func(t *testing.T) {
			errFile, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
			if err != nil {
				t.Fatal(err)
			}
			defer errFile.Close()
			os.Stderr = errFile
			flag.CommandLine = flag.NewFlagSet("cdnsim", flag.ContinueOnError)
			os.Args = []string{"cdnsim", "-figure", "6", "-quick", "-" + tc.flag, tc.val}
			code := realMain()
			os.Stderr = stderr
			msg, err := os.ReadFile(errFile.Name())
			if err != nil {
				t.Fatal(err)
			}
			if code != 1 {
				t.Errorf("exit %d, want 1", code)
			}
			if !strings.Contains(string(msg), "-"+tc.flag+" ") {
				t.Errorf("error does not name -%s: %q", tc.flag, msg)
			}
		})
	}
}
