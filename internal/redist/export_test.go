package redist

// AlignReceiversGreedy is AlignReceiversScratch with the greedy assignment
// forced at every width.
func AlignReceiversGreedy(dst []int, total float64, senders, receivers []int, sc *AlignScratch) []int {
	return alignReceivers(dst, total, senders, receivers, true, sc)
}

// SameMultiset is SameSet's general sort-based path, the reference its
// bitset path is checked against.
var SameMultiset = sameMultiset
