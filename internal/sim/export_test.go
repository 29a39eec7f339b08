package sim

// StartFlow begins one transfer of bytes over the given links after an
// initial latency, invoking done at completion. It is the single-flow form
// of StartFlowBatch, paying one closure per flow: the engine tests are
// written in it, and TestStartFlowBatchMatchesStartFlow pins the batch
// against it.
//
// Self-flows (no links) and empty transfers complete after the latency
// alone. rateCap, if positive, bounds the flow's rate (β').
func (e *Engine) StartFlow(links []int, rateCap, latency, bytes float64, done func()) {
	if len(links) == 0 || bytes <= completionEps {
		e.After(latency, done)
		return
	}
	e.After(latency, func() { e.start(links, rateCap, bytes, done) })
}
