package runner

import "testing"

// TestSplitTrailingInt pins the campaign-number parser that orders
// service directories and continues ID numbering on resume: a digit run
// too long for an int is no number at all, rather than a wrapped one.
func TestSplitTrailingInt(t *testing.T) {
	cases := []struct {
		in     string
		prefix string
		n      int
		ok     bool
	}{
		{"c12", "c", 12, true},
		{"c0", "c", 0, true},
		{"42", "", 42, true},
		{"other", "other", 0, false},
		{"", "", 0, false},
		{"c99999999999999999999999", "c99999999999999999999999", 0, false},
	}
	for _, tc := range cases {
		prefix, n, ok := SplitTrailingInt(tc.in)
		if prefix != tc.prefix || n != tc.n || ok != tc.ok {
			t.Errorf("SplitTrailingInt(%q) = %q, %d, %v; want %q, %d, %v", tc.in, prefix, n, ok, tc.prefix, tc.n, tc.ok)
		}
	}
	if !lessNumericAware("c2", "c10") || lessNumericAware("c10", "c2") {
		t.Error("c2 must sort before c10")
	}
}
