//go:build amd64

package simd

import "testing"

// TestDotManyU8S8PanelSelection: the VNNI walk takes activation panels for a
// run of at least panelMin samples, at most PanelWidth a call, and leaves a
// shorter run to the 2 × 4 tile.
func TestDotManyU8S8PanelSelection(t *testing.T) {
	for _, c := range []struct{ left, want int }{
		{0, 0}, {1, 0}, {panelMin - 1, 0},
		{panelMin, panelMin}, {PanelWidth - 1, PanelWidth - 1}, {PanelWidth, PanelWidth},
		{PanelWidth + 1, PanelWidth}, {2 * PanelWidth, PanelWidth},
	} {
		if got := panelGroup(c.left); got != c.want {
			t.Errorf("panelGroup(%d) = %d, want %d", c.left, got, c.want)
		}
	}
}
