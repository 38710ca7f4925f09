package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"napmon/internal/bdd"
	"napmon/internal/core"
	"napmon/internal/rng"
)

const testWidth = 10

// savedMonitor builds a 3-class γ = 1 monitor from random patterns and
// saves it as a monitor file.
func savedMonitor(t *testing.T) (*core.Monitor, string) {
	t.Helper()
	r := rng.New(5)
	perClass := make(map[int][]core.Pattern)
	for c := 0; c < 3; c++ {
		for i := 0; i < 30; i++ {
			p := make(core.Pattern, testWidth)
			for v := range p {
				p[v] = r.Bool(0.5)
			}
			perClass[c] = append(perClass[c], p)
		}
	}
	mon, err := core.BuildFromPatterns(testWidth, 1, perClass)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "z.monitor")
	if err := mon.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return mon, path
}

var (
	summaryRow = regexp.MustCompile(`^\s+(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s+\[`)
	dotNode    = regexp.MustCompile(`^  n(\d+) \[label="x(\d+)"\];$`)
	dotEdge    = regexp.MustCompile(`^  n(\d+) -> (n\d+|f0|f1)( \[style=dashed\])?;$`)
)

// checkSummary holds the zone table to the loaded monitor's zones.
func checkSummary(t *testing.T, mon *core.Monitor, out string) {
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		m := summaryRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		c, _ := strconv.Atoi(m[1])
		z := mon.Zone(c)
		if z == nil {
			t.Fatalf("summary lists unmonitored class %d", c)
		}
		if got, want := m[3], fmt.Sprintf("%.0f", z.PatternCount()); got != want {
			t.Errorf("class %d: summary says %s patterns, PatternCount %s", c, got, want)
		}
		if got, want := m[4], strconv.Itoa(z.NodeCount()); got != want {
			t.Errorf("class %d: summary says %s nodes, NodeCount %s", c, got, want)
		}
	}
	if rows != len(mon.Classes()) {
		t.Fatalf("summary has %d zone rows for %d classes:\n%s", rows, len(mon.Classes()), out)
	}
}

// parseDot reads a -dot rendering back into plan branches: one per node,
// indexed by its id, with its variable and its dashed (lo) and solid (hi)
// targets.
func parseDot(t *testing.T, dot string) []bdd.PlanBranch {
	var branches []bdd.PlanBranch
	target := func(s string) int32 {
		switch s {
		case "f0":
			return bdd.TerminalFalse
		case "f1":
			return bdd.TerminalTrue
		}
		n, _ := strconv.Atoi(s[1:])
		return int32(n)
	}
	sc := bufio.NewScanner(strings.NewReader(dot))
	for sc.Scan() {
		line := sc.Text()
		if m := dotNode.FindStringSubmatch(line); m != nil {
			id, _ := strconv.Atoi(m[1])
			va, _ := strconv.Atoi(m[2])
			if id != len(branches) {
				t.Fatalf("node n%d out of order (expected n%d)", id, len(branches))
			}
			branches = append(branches, bdd.PlanBranch{Va: int32(va), Lo: -3, Hi: -3})
		} else if m := dotEdge.FindStringSubmatch(line); m != nil {
			id, _ := strconv.Atoi(m[1])
			if id >= len(branches) {
				t.Fatalf("edge from undeclared node n%d", id)
			}
			if m[3] != "" {
				branches[id].Lo = target(m[2])
			} else {
				branches[id].Hi = target(m[2])
			}
		} else if !strings.HasPrefix(line, "digraph") && !strings.HasPrefix(line, "  f") && line != "}" {
			t.Fatalf("unexpected DOT line %q", line)
		}
	}
	return branches
}

// checkDot holds a -dot rendering of class c's zone to its plan: the
// parsed branches must be a canonical plan (bdd.NewCompiled admits only
// what Compile emits) with the zone's branch count, answering like the
// zone on every pattern. A reduced ordered diagram is unique per
// function, so that makes the triples the plan's own.
func checkDot(t *testing.T, mon *core.Monitor, c int, out string) {
	z := mon.Zone(c)
	i := strings.Index(out, fmt.Sprintf("digraph \"zone_%d\" {\n", c))
	if i < 0 {
		t.Fatalf("no zone_%d graph in:\n%s", c, out)
	}
	branches := parseDot(t, out[i:])
	if len(branches) != z.NodeCount() {
		t.Fatalf("class %d: %d DOT nodes for %d plan branches", c, len(branches), z.NodeCount())
	}
	plan, err := bdd.NewCompiled(testWidth, 0, branches)
	if err != nil {
		t.Fatalf("class %d: the DOT graph is not the plan: %v", c, err)
	}
	p := make(core.Pattern, testWidth)
	for a := 0; a < 1<<testWidth; a++ {
		for v := range p {
			p[v] = a&(1<<v) != 0
		}
		if plan.Eval(p) != z.Contains(p) {
			t.Fatalf("class %d pattern %v: DOT graph says %v, zone says %v", c, p, plan.Eval(p), z.Contains(p))
		}
	}
}

func TestRun(t *testing.T) {
	mon, path := savedMonitor(t)
	bad := filepath.Join(t.TempDir(), "bad.monitor")
	if err := os.WriteFile(bad, []byte("not a monitor"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
		check   func(t *testing.T, out string)
	}{
		{name: "summary", args: []string{"-monitor", path},
			check: func(t *testing.T, out string) { checkSummary(t, mon, out) }},
		{name: "dot 0", args: []string{"-monitor", path, "-dot", "0"},
			check: func(t *testing.T, out string) { checkSummary(t, mon, out); checkDot(t, mon, 0, out) }},
		{name: "dot 2", args: []string{"-monitor", path, "-dot", "2"},
			check: func(t *testing.T, out string) { checkDot(t, mon, 2, out) }},
		{name: "unmonitored dot class", args: []string{"-monitor", path, "-dot", "7"}, wantErr: "class 7 is not monitored"},
		{name: "nothing to inspect", args: nil, wantErr: "nothing to inspect"},
		{name: "bad monitor file", args: []string{"-monitor", bad}, wantErr: "snapshot magic"},
		{name: "missing model file", args: []string{"-model", filepath.Join(t.TempDir(), "none")}, wantErr: "no such file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, out.String())
		})
	}
}
