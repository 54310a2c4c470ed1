package mvc

// MustCells unboxes one literal row for a test bean.
func MustCells(row ...Value) []Cell {
	cells := make([]Cell, len(row))
	for i, v := range row {
		var err error
		if cells[i], err = CellOf(v); err != nil {
			panic(err)
		}
	}
	return cells
}
