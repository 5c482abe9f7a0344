package schedfile

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad ensures the schedule-file loader never panics and that anything
// it accepts round-trips losslessly.
func FuzzLoad(f *testing.F) {
	var seed bytes.Buffer
	if err := Save(&seed, "seed", sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add(`{}`)
	f.Add(`{"version":1}`)
	f.Add(`{"version":1,"program":"p","modes":[{"volts":0.7,"mhz":200}],"initial":0,` +
		`"regulator":{"capacitance_f":1e-5,"efficiency":0.9,"imax_a":1},"assignments":[]}`)
	f.Add(`[1,2,3]`)
	f.Add(`{"version":1,"modes":[{"volts":-1,"mhz":-1}]}`)

	f.Fuzz(func(t *testing.T, data string) {
		name, sched, err := Load(strings.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted inputs must serialize and load back identically.
		var buf bytes.Buffer
		if err := Save(&buf, name, sched); err != nil {
			t.Fatalf("accepted schedule failed to save: %v", err)
		}
		name2, sched2, err := Load(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if name2 != name || sched2.Initial != sched.Initial ||
			len(sched2.Assignment) != len(sched.Assignment) {
			t.Fatal("round trip not lossless")
		}
	})
}
