package oracle

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// LintPrometheus validates Prometheus text exposition format the way
// `promtool check metrics` does, minus the parts that need the upstream
// data model: metric and label name syntax, HELP/TYPE placement, counter
// naming, histogram bucket structure (cumulative counts, a +Inf bucket,
// agreement with _count). It returns every problem found, or nil when the
// exposition is clean. It is vendored here so CI can lint ratsd's
// /metrics output without adding a dependency.
func LintPrometheus(r io.Reader) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	type metricInfo struct {
		typ     string
		seen    bool // samples observed
		buckets []bucketSample
		count   uint64
		hasCnt  bool
	}
	metrics := map[string]*metricInfo{}
	get := func(name string) *metricInfo {
		m, ok := metrics[name]
		if !ok {
			m = &metricInfo{}
			metrics[name] = m
		}
		return m
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, ok := parseComment(line)
			if !ok {
				continue // free-form comment: allowed
			}
			if !metricNameRe.MatchString(name) {
				fail(n, "invalid metric name %q in %s", name, kind)
				continue
			}
			m := get(name)
			if kind == "TYPE" {
				if m.seen {
					fail(n, "TYPE for %s after its samples", name)
				}
				if m.typ != "" {
					fail(n, "duplicate TYPE for %s", name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					m.typ = rest
				default:
					fail(n, "unknown TYPE %q for %s", rest, name)
				}
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			fail(n, "%v", err)
			continue
		}
		// Counters declare TYPE under their full name (foo_total); histogram
		// samples hang off the family name (foo_bucket under foo). Try the
		// exact name first, then the peeled base.
		base, suffix := name, ""
		if _, ok := metrics[name]; !ok {
			base, suffix = splitSuffix(name)
		}
		m := get(base)
		m.seen = true
		switch m.typ {
		case "":
			fail(n, "sample %s without a preceding TYPE", name)
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				fail(n, "counter sample %s should end in _total", name)
			}
		case "histogram":
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					fail(n, "histogram bucket %s missing le label", name)
					continue
				}
				bound, perr := parseLe(le)
				if perr != nil {
					fail(n, "histogram %s: %v", base, perr)
					continue
				}
				cum, perr := strconv.ParseUint(strings.TrimSuffix(value, ".0"), 10, 64)
				if perr != nil {
					fail(n, "histogram %s: bucket count %q not an integer", base, value)
					continue
				}
				m.buckets = append(m.buckets, bucketSample{bound, cum, n})
			case "_sum":
				if _, perr := strconv.ParseFloat(value, 64); perr != nil {
					fail(n, "histogram %s: _sum %q not a float", base, value)
				}
			case "_count":
				c, perr := strconv.ParseUint(strings.TrimSuffix(value, ".0"), 10, 64)
				if perr != nil {
					fail(n, "histogram %s: _count %q not an integer", base, value)
					continue
				}
				m.count, m.hasCnt = c, true
			default:
				fail(n, "histogram sample %s: want _bucket, _sum or _count", name)
			}
		}
		if _, perr := strconv.ParseFloat(value, 64); perr != nil {
			fail(n, "sample %s: value %q not a float", name, value)
		}
	}
	if err := sc.Err(); err != nil {
		errs = append(errs, fmt.Errorf("read: %v", err))
	}

	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		if m.typ != "" && !m.seen {
			errs = append(errs, fmt.Errorf("metric %s: TYPE declared but no samples", name))
		}
		if m.typ != "histogram" || len(m.buckets) == 0 {
			continue
		}
		last := m.buckets[len(m.buckets)-1]
		if !isInf(last.le) {
			errs = append(errs, fmt.Errorf("histogram %s: last bucket le=%g, want +Inf", name, last.le))
		}
		for i := 1; i < len(m.buckets); i++ {
			prev, cur := m.buckets[i-1], m.buckets[i]
			if cur.le <= prev.le && !isInf(cur.le) {
				errs = append(errs, fmt.Errorf("line %d: histogram %s: le bounds not increasing", cur.line, name))
			}
			if cur.cum < prev.cum {
				errs = append(errs, fmt.Errorf("line %d: histogram %s: bucket counts not cumulative", cur.line, name))
			}
		}
		if m.hasCnt && isInf(last.le) && last.cum != m.count {
			errs = append(errs, fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", name, last.cum, m.count))
		}
	}
	return errs
}

type bucketSample struct {
	le   float64
	cum  uint64
	line int
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func isInf(f float64) bool { return math.IsInf(f, 1) }

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("le %q not a float", s)
	}
	return f, nil
}

// parseComment splits "# HELP name text" / "# TYPE name kind"; ok=false
// for other comments.
func parseComment(line string) (kind, name, rest string, ok bool) {
	f := strings.Fields(line)
	if len(f) < 3 || f[0] != "#" || (f[1] != "HELP" && f[1] != "TYPE") {
		return "", "", "", false
	}
	return f[1], f[2], strings.Join(f[3:], " "), true
}

// parseSample splits `name{l1="v1",...} value` into its parts, validating
// name and label syntax. Timestamps (a trailing integer) are accepted.
func parseSample(line string) (name string, labels map[string]string, value string, err error) {
	rest := line
	brace := strings.IndexByte(rest, '{')
	labels = map[string]string{}
	if brace >= 0 {
		name = rest[:brace]
		end := strings.IndexByte(rest, '}')
		if end < brace {
			return "", nil, "", fmt.Errorf("sample %q: unterminated label set", line)
		}
		for _, pair := range splitLabels(rest[brace+1 : end]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				return "", nil, "", fmt.Errorf("sample %q: bad label pair %q", line, pair)
			}
			ln := pair[:eq]
			lv := pair[eq+1:]
			if !labelNameRe.MatchString(ln) {
				return "", nil, "", fmt.Errorf("sample %q: invalid label name %q", line, ln)
			}
			if len(lv) < 2 || lv[0] != '"' || lv[len(lv)-1] != '"' {
				return "", nil, "", fmt.Errorf("sample %q: label %s value not quoted", line, ln)
			}
			labels[ln] = lv[1 : len(lv)-1]
		}
		rest = rest[end+1:]
	} else {
		sp := strings.IndexAny(rest, " \t")
		if sp < 0 {
			return "", nil, "", fmt.Errorf("sample %q: no value", line)
		}
		name = rest[:sp]
		rest = rest[sp:]
	}
	if !metricNameRe.MatchString(name) {
		return "", nil, "", fmt.Errorf("sample %q: invalid metric name %q", line, name)
	}
	f := strings.Fields(rest)
	if len(f) < 1 || len(f) > 2 {
		return "", nil, "", fmt.Errorf("sample %q: want value [timestamp]", line)
	}
	return name, labels, f[0], nil
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// splitSuffix peels a known sample suffix off a metric name so samples can
// be matched to their TYPE line: foo_total → (foo, _total) for counters,
// foo_bucket/_sum/_count → (foo, suffix) for histograms.
func splitSuffix(name string) (base, suffix string) {
	for _, s := range []string{"_total", "_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, s) {
			return strings.TrimSuffix(name, s), s
		}
	}
	return name, ""
}
