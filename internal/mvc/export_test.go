package mvc

import "webmlgo/internal/cell"

// MustCells unboxes one literal row for a test bean.
func MustCells(row ...Value) []cell.Cell {
	cells := make([]cell.Cell, len(row))
	for i, v := range row {
		var err error
		if cells[i], err = cell.Of(v); err != nil {
			panic(err)
		}
	}
	return cells
}
