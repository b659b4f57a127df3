package train

import (
	"strings"
	"testing"
)

func TestValidateRunFlags(t *testing.T) {
	cases := []struct {
		name       string
		budget     int64
		wantErr    bool
		wantSubstr string
	}{
		{name: "defaults", wantErr: false},
		{name: "budget", budget: 1 << 20, wantErr: false},
		{name: "negative budget", budget: -1, wantErr: true, wantSubstr: "mem_budget"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateRunFlags(c.budget)
			if (err != nil) != c.wantErr {
				t.Fatalf("ValidateRunFlags(%d) = %v, wantErr %v", c.budget, err, c.wantErr)
			}
			if err != nil && !strings.Contains(err.Error(), c.wantSubstr) {
				t.Fatalf("error %q does not mention %q", err, c.wantSubstr)
			}
		})
	}
}
