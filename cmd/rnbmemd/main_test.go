package main

import "testing"

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"0", 0, false},
		{"1024", 1024, false},
		{"512KB", 512 << 10, false},
		{"256MB", 256 << 20, false},
		{"2GB", 2 << 30, false},
		{"64mb", 64 << 20, false},
		{" 8 MB ", 8 << 20, false},
		{"10B", 10, false},
		{"-5", 0, true},
		{"abc", 0, true},
		{"12TB", 0, true}, // TB is no suffix: "B" is stripped and "12T" does not parse
		{"", 0, true},
		// v * 1 GiB past int64: would wrap to 1 GiB, and to a negative
		// (unbounded) capacity.
		{"17179869185GB", 0, true},
		{"8589934592GB", 0, true},
		{"8589934591GB", 8589934591 << 30, false}, // the largest GB count that fits
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if c.err {
			if err == nil {
				t.Errorf("parseSize(%q) accepted, got %d", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSize(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
