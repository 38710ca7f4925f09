package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line: a series name, its label set
// and the sample value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is the parsed form of a Prometheus text payload. It is
// what the soak harness and the metrics linter consume to
// cross-check scraped counters against independent accounting.
type Exposition struct {
	// Types maps metric name -> declared TYPE (counter, gauge,
	// histogram, untyped).
	Types map[string]string
	// Samples holds every sample line in file order.
	Samples []Sample
}

// ParseExposition reads and validates a Prometheus text-format payload.
// It enforces the structural rules a scraper relies on: metric and
// label name syntax, quoted-and-escaped label values, parseable sample
// values, TYPE declared at most once and before any of its samples,
// histogram families consisting only of _bucket/_sum/_count series with
// `le` on every bucket, non-decreasing cumulative bucket counts, and a
// +Inf bucket matching _count. Any violation returns an error naming
// the offending line.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	// histogram bookkeeping, keyed by base name + non-le label set
	hCum := make(map[string]float64) // last cumulative bucket value
	hInf := make(map[string]float64) // +Inf bucket value
	hCount := make(map[string]float64)
	hHasInf := make(map[string]bool)
	hHasCount := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := e.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := s.Name
		isBucket := false
		if t := e.Types[trimHistSuffix(s.Name)]; t == "histogram" {
			base = trimHistSuffix(s.Name)
			switch {
			case s.Name == base+"_bucket":
				isBucket = true
			case s.Name == base+"_sum", s.Name == base+"_count":
			default:
				return nil, fmt.Errorf("line %d: histogram %q has non-histogram sample %q", lineNo, base, s.Name)
			}
		} else if t, declared := e.Types[s.Name]; declared && t == "histogram" {
			return nil, fmt.Errorf("line %d: histogram %q exposed as a bare sample", lineNo, s.Name)
		} else if !declared {
			// A sample under a declared histogram family's name with a
			// suffix other than _bucket/_sum/_count is malformed.
			for hname, typ := range e.Types {
				if typ == "histogram" && strings.HasPrefix(s.Name, hname+"_") {
					return nil, fmt.Errorf("line %d: histogram %q has stray sample %q", lineNo, hname, s.Name)
				}
			}
		}
		if isBucket {
			le, okLE := s.Labels["le"]
			if !okLE {
				return nil, fmt.Errorf("line %d: %s_bucket without le label", lineNo, base)
			}
			key := base + "|" + labelKey(s.Labels, "le")
			if le == "+Inf" {
				hInf[key] = s.Value
				hHasInf[key] = true
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				return nil, fmt.Errorf("line %d: bad le value %q", lineNo, le)
			}
			if s.Value+1e-9 < hCum[key] {
				return nil, fmt.Errorf("line %d: histogram %q cumulative bucket decreased (%g after %g)", lineNo, base, s.Value, hCum[key])
			}
			hCum[key] = s.Value
		} else if base != s.Name && s.Name == base+"_count" {
			key := base + "|" + labelKey(s.Labels, "le")
			hCount[key] = s.Value
			hHasCount[key] = true
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for key := range hHasCount {
		if !hHasInf[key] {
			return nil, fmt.Errorf("histogram series %q lacks a +Inf bucket", key)
		}
		if math.Abs(hInf[key]-hCount[key]) > 1e-9 {
			return nil, fmt.Errorf("histogram series %q: +Inf bucket %g != _count %g", key, hInf[key], hCount[key])
		}
	}
	// A TYPE with no samples at all is legal per the format, but our
	// writer never produces it and the smoke test wants to catch a
	// registry wired to nothing — callers check presence via Has.
	return e, nil
}

func (e *Exposition) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !validMetricName(name) {
			return fmt.Errorf("TYPE for invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %q", typ, name)
		}
		if _, dup := e.Types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %q", name)
		}
		e.Types[name] = typ
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	}
	return nil
}

// parseSampleLine parses `name{l1="v1",...} value [timestamp]`.
func parseSampleLine(line string) (Sample, error) {
	s := Sample{}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !validMetricName(s.Name) {
		return s, fmt.Errorf("invalid metric name in sample %q", line)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("sample %q: %w", line, err)
		}
		s.Labels = labels
		rest = rest[end:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return s, fmt.Errorf("sample %q: expected value [timestamp]", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	s.Value = v
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: bad timestamp: %w", line, err)
		}
	}
	return s, nil
}

// parseLabels parses a `{name="value",...}` block starting at s[0]=='{'
// and returns the index one past the closing brace.
func parseLabels(s string) (int, map[string]string, error) {
	labels := make(map[string]string)
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return 0, nil, fmt.Errorf("unterminated label block")
		}
		name := s[start:i]
		if !validLabelName(name) {
			return 0, nil, fmt.Errorf("invalid label name %q", name)
		}
		i++ // '='
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("label %q: value not quoted", name)
		}
		i++
		var b strings.Builder
		for {
			if i >= len(s) {
				return 0, nil, fmt.Errorf("label %q: unterminated value", name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				i++
				if i >= len(s) {
					return 0, nil, fmt.Errorf("label %q: dangling escape", name)
				}
				switch s[i] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return 0, nil, fmt.Errorf("label %q: bad escape \\%c", name, s[i])
				}
				i++
				continue
			}
			b.WriteByte(c)
			i++
		}
		if _, dup := labels[name]; dup {
			return 0, nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = b.String()
	}
}

// trimHistSuffix strips a _bucket/_sum/_count suffix if present.
func trimHistSuffix(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// labelKey renders a label set (minus the names in skip) as a stable
// sorted key for grouping histogram series.
func labelKey(labels map[string]string, skip ...string) string {
	keys := make([]string, 0, len(labels))
outer:
	for k := range labels {
		for _, sk := range skip {
			if k == sk {
				continue outer
			}
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

// Value returns the sample value for an exact (name, label set) match.
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name == name && len(s.Labels) == len(labels) && hasLabels(s, labels) {
			return s.Value, true
		}
	}
	return 0, false
}

// Has reports whether any sample exists for name — for histograms, any
// of the family's _bucket/_sum/_count series counts.
func (e *Exposition) Has(name string) bool {
	for _, s := range e.Samples {
		if s.Name == name || trimHistSuffix(s.Name) == name {
			return true
		}
	}
	return false
}

// SumAcross sums every sample named name whose labels include match
// (nil matches all), across the rest of their label sets — e.g. one
// tenant's OOP verdicts over all classes — and reports how many series
// matched.
func (e *Exposition) SumAcross(name string, match map[string]string) (float64, int) {
	var total float64
	n := 0
	for _, s := range e.Samples {
		if s.Name == name && hasLabels(s, match) {
			total += s.Value
			n++
		}
	}
	return total, n
}

// hasLabels reports whether s carries every label in want.
func hasLabels(s Sample, want map[string]string) bool {
	for k, v := range want {
		if got, ok := s.Labels[k]; !ok || got != v {
			return false
		}
	}
	return true
}
