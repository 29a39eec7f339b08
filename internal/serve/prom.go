package serve

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WritePrometheus renders the collector's state in the Prometheus text
// exposition format (version 0.0.4): the request lifecycle counters, the
// engine-level counters summed over recorded requests (one counter per
// obs.Counters field, named rats_engine_<field>_total), and the latency
// and queue-wait distributions as native Prometheus histograms with
// cumulative le buckets in seconds. The output passes the vendored
// oracle.LintPrometheus validator; CI scrapes and lints it.
func (c *Collector) WritePrometheus(w io.Writer) error {
	c.mu.Lock()
	up := time.Since(c.started).Seconds()
	accepted, completed, failed := c.accepted, c.completed, c.failed
	shed, expired, panicked := c.shed, c.expired, c.panicked
	engine := c.engine
	latency := c.latency
	queueWait := c.queueWait
	c.mu.Unlock()

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("rats_requests_accepted_total", "Requests admitted past the queue boundary.", accepted)
	counter("rats_requests_completed_total", "Requests scheduled successfully.", completed)
	counter("rats_requests_failed_total", "Requests that failed in the pipeline or were malformed.", failed)
	counter("rats_requests_shed_total", "Requests rejected with 429 at the queue boundary.", shed)
	counter("rats_requests_expired_total", "Requests whose deadline passed before execution.", expired)
	counter("rats_requests_panicked_total", "Requests whose pipeline panicked, answered with 500 (also counted as failed).", panicked)
	fmt.Fprintf(&b, "# HELP rats_uptime_seconds Seconds since the collector started.\n"+
		"# TYPE rats_uptime_seconds gauge\nrats_uptime_seconds %g\n", up)

	engine.Each(func(name string, v uint64) {
		counter("rats_engine_"+name+"_total",
			"Engine counter "+name+" summed over recorded requests.", v)
	})

	writeHistogram(&b, "rats_request_seconds",
		"End-to-end request latency (queue wait + pipeline).", &latency)
	writeHistogram(&b, "rats_queue_wait_seconds",
		"Time requests spent queued before execution.", &queueWait)

	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram with cumulative bucket counts. The
// le bounds are each bucket's upper edge in seconds (bucket 0's edge is
// histBase); the unbounded last bucket becomes +Inf.
func writeHistogram(b *strings.Builder, name, help string, h *histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	bound := histBase
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i]
		if i < histBuckets-1 {
			fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, bound.Seconds(), cum)
			bound *= 2
		} else {
			fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		}
	}
	fmt.Fprintf(b, "%s_sum %g\n", name, h.sum.Seconds())
	fmt.Fprintf(b, "%s_count %d\n", name, h.total)
}
