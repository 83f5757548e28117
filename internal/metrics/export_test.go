package metrics

// IDOrderedTriangles exposes the id-ordered triangle oracle to the
// external metrics_test package, whose fuzz target also drives the
// engine (which imports metrics, so it cannot be tested from inside).
var IDOrderedTriangles = idOrderedTriangles

// Dist gathers source i's distance row out of its block lane: entry v
// is the hop distance from source i to node v, -1 if unreachable.
func (dm *DistMap) Dist(i int) []int32 {
	blk := &dm.blocks[i/msbfsLanes]
	row := make([]int32, dm.s.N())
	for v := range row {
		row[v] = blk.at(int32(v))[i%msbfsLanes]
	}
	return row
}
