package mem

import (
	"testing"
	"unsafe"
)

// aligned reports whether the first element of s sits on a 64-byte boundary
// (empty slices are trivially aligned).
func aligned(s []float32) bool {
	if len(s) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&s[0]))%alignBytes == 0
}

func TestBackingAlignment(t *testing.T) {
	// Backing allocations start on a 64-byte boundary (one cache line, one
	// zmm register), for every allocation size including cache-line-odd ones.
	for _, n := range []int{1, 2, 15, 16, 17, 64, 100, 1000, 4096} {
		_, backing := Contiguous2D(3, n)
		if !aligned(backing) {
			t.Errorf("Contiguous2D(3, %d): backing not 64-byte aligned", n)
		}
	}
	// Rows carved at multiples of 16 floats stay aligned for zmm loads.
	rows, _ := Contiguous2D(4, 16)
	for i, r := range rows {
		if !aligned(r) {
			t.Errorf("Contiguous2D(4, 16) row %d not aligned", i)
		}
	}
	if !aligned(nil) {
		t.Error("empty slice must report aligned")
	}
}

func TestContiguous2D(t *testing.T) {
	rows, backing := Contiguous2D(4, 8)
	if len(rows) != 4 || len(backing) != 32 {
		t.Fatalf("shape %d x %d, backing %d", len(rows), len(rows[0]), len(backing))
	}
	// Row i must alias backing[i*cols:].
	rows[2][3] = 42
	if backing[2*8+3] != 42 {
		t.Error("row view does not alias backing storage")
	}
	// Rows are capacity-clamped: appending to a row must not clobber the next.
	r := append(rows[0][:0], make([]float32, 9)...)
	if &r[0] == &rows[0][0] && backing[8] != 0 && rows[1][0] != 0 {
		t.Error("append through row view clobbered next row")
	}
}

func TestContiguous2DZeroDims(t *testing.T) {
	rows, backing := Contiguous2D(0, 5)
	if len(rows) != 0 || len(backing) != 0 {
		t.Error("zero rows should produce empty structures")
	}
	rows2, backing2 := Contiguous2D(3, 0)
	if len(rows2) != 3 || len(backing2) != 0 {
		t.Error("zero cols should produce 3 empty rows")
	}
}

func TestContiguous2DNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dims did not panic")
		}
	}()
	Contiguous2D(-1, 3)
}

func TestScattered2D(t *testing.T) {
	rows, decoys := Scattered2D(5, 7)
	if len(rows) != 5 || len(decoys) != 5 {
		t.Fatalf("got %d rows, %d decoys", len(rows), len(decoys))
	}
	for i, r := range rows {
		if len(r) != 7 {
			t.Fatalf("row %d has length %d", i, len(r))
		}
	}
	// Rows are independent allocations: writing one must not affect another.
	rows[0][6] = 1
	if rows[1][0] != 0 {
		t.Error("scattered rows alias each other")
	}
}

func TestScattered2DNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative dims did not panic")
		}
	}()
	Scattered2D(2, -2)
}
