package main

import (
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	for _, tc := range []struct {
		only    string
		want    []string // sections selected; nil with wantErr
		wantErr string   // substring of the error, "" for success
	}{
		{only: "", want: sections},
		{only: "quant", want: []string{"quant"}},
		{only: "table3, quant ,parallel", want: []string{"table3", "quant", "parallel"}},
		{only: "serve,serve", want: []string{"serve"}},
		{only: "stages", wantErr: `unknown section "stages"`},
		{only: "ingest", wantErr: `unknown section "ingest"`},
		{only: "stages,quant", wantErr: `unknown section "stages"`},
		{only: "quant,", wantErr: `unknown section ""`},
		{only: "Quant", wantErr: `unknown section "Quant"`},
	} {
		got, err := parseOnly(tc.only)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("parseOnly(%q) = %v, want an error", tc.only, got)
				continue
			}
			if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), strings.Join(sections, ",")) {
				t.Errorf("parseOnly(%q) error %q: want %q and the valid section list", tc.only, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseOnly(%q): %v", tc.only, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("parseOnly(%q) selected %v, want %v", tc.only, got, tc.want)
		}
		for _, name := range tc.want {
			if !got[name] {
				t.Errorf("parseOnly(%q) does not select %q", tc.only, name)
			}
		}
	}
}
