package metrics

// IDOrderedTriangles exposes the id-ordered triangle oracle to the
// external metrics_test package, whose fuzz target also drives the
// engine (which imports metrics, so it cannot be tested from inside).
var IDOrderedTriangles = idOrderedTriangles
