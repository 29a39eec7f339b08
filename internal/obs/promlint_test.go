package obs_test

// The exposition linter lives in internal/oracle, which imports obs; its
// tests therefore run as an external test package.

import (
	"strings"
	"testing"

	"repro/internal/oracle"
)

const validExposition = `# HELP rats_requests_total Requests handled.
# TYPE rats_requests_total counter
rats_requests_total 42
# HELP rats_memo_probes_total Estimator memo probes.
# TYPE rats_memo_probes_total counter
rats_memo_probes_total 1234
# HELP rats_request_seconds Request latency.
# TYPE rats_request_seconds histogram
rats_request_seconds_bucket{le="0.001"} 3
rats_request_seconds_bucket{le="0.01"} 10
rats_request_seconds_bucket{le="+Inf"} 12
rats_request_seconds_sum 0.5
rats_request_seconds_count 12
# TYPE rats_inflight gauge
rats_inflight 0
`

func TestLintPrometheusValid(t *testing.T) {
	errs := oracle.LintPrometheus(strings.NewReader(validExposition))
	for _, e := range errs {
		t.Errorf("unexpected lint error: %v", e)
	}
}

func TestLintPrometheusCatchesProblems(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"no type", "foo_total 1\n", "without a preceding TYPE"},
		{"counter suffix", "# TYPE foo counter\nfoo 1\n", "_total"},
		{"bad name", "# TYPE 9bad counter\n", "invalid metric name"},
		{"bad value", "# TYPE foo gauge\nfoo abc\n", "not a float"},
		{"non cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n", "cumulative"},
		{"no inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n", "+Inf"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 7\n", "_count"},
		{"le order", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n", "not increasing"},
		{"unterminated labels", "# TYPE g gauge\ng{le=\"1\" 2\n", "unterminated"},
		{"type after samples", "# TYPE g gauge\ng 1\n# TYPE g gauge\n", "duplicate TYPE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := oracle.LintPrometheus(strings.NewReader(tc.text))
			if len(errs) == 0 {
				t.Fatalf("lint accepted invalid exposition:\n%s", tc.text)
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no error mentioning %q in %v", tc.want, errs)
			}
		})
	}
}
