package lib

import "testing"

// A test caller does not make Planted used.
func TestPlanted(t *testing.T) {
	if Planted() != 1 {
		t.Fatal("Planted")
	}
}
