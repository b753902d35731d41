package core

// Helpers shared with the external test package core_test, whose tests
// import packages that themselves import core (internal/simulation,
// internal/topo).
var (
	RandomLabeledGraph = randomLabeledGraph
	RandomPattern      = randomPattern
)
