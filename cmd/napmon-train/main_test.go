package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"napmon/internal/exp"
)

// TestRun drives the command through its run seam: bad flags fail before
// anything is trained or written, and the files of a good run load back
// through the daemon's loader with the requested γ.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"negative gamma", []string{"-gamma", "-1"}, "-gamma -1"},
		{"unknown dataset", []string{"-dataset", "foo"}, `unknown dataset "foo"`},
		{"mnist", []string{"-dataset", "mnist", "-scale", "0.02", "-gamma", "1"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			model, monitor := filepath.Join(dir, "a"), filepath.Join(dir, "b")
			err := run(append(tc.args, "-model", model, "-monitor", monitor), io.Discard)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%v) = %v, want an error containing %q", tc.args, err, tc.wantErr)
				}
				for _, p := range []string{model, monitor} {
					if _, err := os.Stat(p); !os.IsNotExist(err) {
						t.Fatalf("failed run left %s behind (stat: %v)", filepath.Base(p), err)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			_, mon, err := exp.LoadOrTrain(model, monitor, 0, "mnist", 1, 2, t.Logf)
			if err != nil {
				t.Fatal(err)
			}
			if mon.Gamma() != 1 {
				t.Fatalf("loaded monitor serves γ = %d, want 1", mon.Gamma())
			}
		})
	}
}
