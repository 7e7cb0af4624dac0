package main

import (
	"slices"
	"testing"
)

// TestParseSizes: -fig9sizes takes positive intersection counts only, and
// a bad entry is an error that names it instead of being dropped.
func TestParseSizes(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    []int
		wantErr string
	}{
		{name: "default", in: "10,50,100", want: []int{10, 50, 100}},
		{name: "spaces around entries", in: " 1 , 1000", want: []int{1, 1000}},
		{name: "zero", in: "0", wantErr: `entry "0": want a positive intersection count`},
		{name: "negative among good", in: "10,-5,100", wantErr: `entry "-5": want a positive intersection count`},
		{name: "not a number", in: "abc", wantErr: `entry "abc": want a positive intersection count`},
		{name: "trailing text", in: "10x", wantErr: `entry "10x": want a positive intersection count`},
		{name: "empty entry", in: "10,,50", wantErr: `entry "": want a positive intersection count`},
		{name: "empty list", in: "", wantErr: `entry "": want a positive intersection count`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parseSizes(tt.in)
			if tt.wantErr != "" {
				if err == nil || err.Error() != tt.wantErr {
					t.Fatalf("parseSizes(%q) error = %v, want %q", tt.in, err, tt.wantErr)
				}
				return
			}
			if err != nil || !slices.Equal(got, tt.want) {
				t.Fatalf("parseSizes(%q) = %v, %v; want %v", tt.in, got, err, tt.want)
			}
		})
	}
}
