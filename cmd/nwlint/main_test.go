package main

import (
	"slices"
	"strings"
	"testing"

	"nwdec/internal/lint"
)

// TestTargetPaths pins the argument expansion. The test runs in
// cmd/nwlint, so arguments reach the module root through "../..".
func TestTargetPaths(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	all, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		want    []string // nil when an error is expected
		wantErr string
	}{
		{name: "no-args", want: all},
		{name: "dot-tree", args: []string{"./..."}, want: []string{"nwdec/cmd/nwlint"}},
		{name: "module-tree", args: []string{"../../..."}, want: all},
		{name: "subtree", args: []string{"../../scripts/..."},
			want: []string{"nwdec/scripts", "nwdec/scripts/citimes", "nwdec/scripts/covergate"}},
		{name: "subtree-skips-testdata", args: []string{"../../internal/lint/..."}, want: []string{"nwdec/internal/lint"}},
		{name: "directory", args: []string{"../../internal/par"}, want: []string{"nwdec/internal/par"}},
		{name: "module-root", args: []string{"../.."}, want: []string{"nwdec"}},
		{name: "mixed", args: []string{"../../internal/par", "../../internal/lint/..."},
			want: []string{"nwdec/internal/par", "nwdec/internal/lint"}},
		{name: "outside-module", args: []string{"../../.."}, wantErr: "outside module"},
		{name: "outside-module-tree", args: []string{"../../../..."}, wantErr: "outside module"},
		{name: "matches-nothing", args: []string{"../../internal/nope/..."}, wantErr: "matches no package"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := targetPaths(loader, tc.args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("targetPaths(%q) = %v, %v; want error containing %q", tc.args, got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("targetPaths(%q) = %v, want %v", tc.args, got, tc.want)
			}
		})
	}
}
