package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served by
// Handler and expected by scrapers.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteText renders every registered metric in Prometheus text format:
// one # HELP / # TYPE header per family followed by its series, in
// registration order. Counter and gauge callbacks run here, and each
// histogram is snapshotted once — recording continues concurrently. The
// families and their series are copied under the registry lock first,
// so a registration racing the scrape is either wholly in it or not.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := make([]family, len(r.order))
	for i, f := range r.order {
		fams[i] = *f
	}
	r.mu.Unlock()
	for _, f := range fams {
		bw.WriteString("# HELP ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.help))
		bw.WriteString("\n# TYPE ")
		bw.WriteString(f.name)
		bw.WriteByte(' ')
		bw.WriteString(f.kind.String())
		bw.WriteByte('\n')
		for _, s := range f.series {
			if f.kind == kindHistogram {
				writeHistogramSeries(bw, f.name, s)
				continue
			}
			writeSample(bw, f.name, s.labels, s.value())
		}
	}
	return bw.Flush()
}

// Handler returns an http.Handler that serves the registry — the body
// behind GET /metrics on napmon-serve and the gateway admin listener.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WriteText(w)
	})
}

// writeHistogramSeries renders one histogram as cumulative le buckets
// plus _sum and _count. Emitting all ~2000 internal buckets per scrape
// would bloat the payload for no fidelity gain, so bounds are laid at
// octave edges spanning the observed range — every edge is an exact
// internal bucket boundary, so the cumulative counts are exact, and the
// octave spacing already matches the histogram's own resolution class.
func writeHistogramSeries(bw *bufio.Writer, name string, s *series) {
	var snap HistogramSnapshot
	if h := s.hist(); h != nil {
		snap = h.Snapshot()
	}
	lo, hi, ok := snap.nonEmptyRange()
	if ok {
		loV, hiV := bucketMax(lo), bucketMax(hi)
		// Octave-edge bounds 2^k-1, starting one edge below the smallest
		// observation and ending at the first edge covering the largest;
		// each edge is bucketMax of its octave's last bucket, so
		// CumulativeLE is exact there.
		for v := int64(0); ; v = v*2 + 1 {
			if v*2+1 < loV {
				continue // below the observed range; next edge still is
			}
			writeBucket(bw, name, s.labels, float64(v)*s.scale, snap.CumulativeLE(v))
			if v >= hiV {
				break
			}
		}
	}
	writeBucketInf(bw, name, s.labels, snap.Count())
	writeSample(bw, name+"_sum", s.labels, float64(snap.Sum())*s.scale)
	writeSample(bw, name+"_count", s.labels, float64(snap.Count()))
}

func writeBucket(bw *bufio.Writer, name string, labels []Label, le float64, count uint64) {
	withLE := append(append(make([]Label, 0, len(labels)+1), labels...),
		Label{Name: "le", Value: formatValue(le)})
	writeSample(bw, name+"_bucket", withLE, float64(count))
}

func writeBucketInf(bw *bufio.Writer, name string, labels []Label, count uint64) {
	withLE := append(append(make([]Label, 0, len(labels)+1), labels...),
		Label{Name: "le", Value: "+Inf"})
	writeSample(bw, name+"_bucket", withLE, float64(count))
}

func writeSample(bw *bufio.Writer, name string, labels []Label, v float64) {
	bw.WriteString(name)
	if len(labels) > 0 {
		bw.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(l.Name)
			bw.WriteString(`="`)
			bw.WriteString(escapeLabel(l.Value))
			bw.WriteByte('"')
		}
		bw.WriteByte('}')
	}
	bw.WriteByte(' ')
	bw.WriteString(formatValue(v))
	bw.WriteByte('\n')
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}
