package scheduler

import "testing"

// FuzzParsePolicy: any string must give an error or a registered policy
// whose String parses back to the same policy, never a panic.
func FuzzParsePolicy(f *testing.F) {
	for _, name := range PolicyNames() {
		f.Add(name)
	}
	f.Add("")
	f.Add("bestfit")
	f.Add("PlacementPolicy(0)")

	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParsePolicy(name)
		if err != nil {
			return
		}
		back, err := ParsePolicy(p.String())
		if err != nil || back != p {
			t.Fatalf("ParsePolicy(%q) = %v, but its String %q parses to %v, %v", name, p, p.String(), back, err)
		}
		if PolicyFor(p).Kind() != p {
			t.Fatalf("policy %v resolves to %v", p, PolicyFor(p).Kind())
		}
	})
}
