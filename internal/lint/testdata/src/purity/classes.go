package purity

// One function per class of the purity lattice
// (FuncSummary.PurityClass), pinned by TestStoreAliasPurityClasses.

var counter int

var sink []*int

// add touches nothing outside its frame.
func add(a, b int) int {
	return a + b
}

// readGlobal reads package state without writing it.
func readGlobal() int {
	return counter
}

// bumpGlobal writes package state.
func bumpGlobal() {
	counter++
}

// leak publishes its parameter into shared memory.
func leak(p *int) {
	sink = append(sink, p)
}

// sendOnly blocks forever conceptually, but for classification the send
// alone makes it escaping.
func sendOnly(ch chan int, v int) {
	ch <- v
}

// callsUnknown calls through a function value: conservatively mutating.
func callsUnknown(f func() int) int {
	return f()
}
