package exp

import (
	"bytes"
	"testing"

	"dramstacks/internal/addrmap"
	"dramstacks/internal/dram"
	"dramstacks/internal/memctrl"
)

// FuzzDecodeSpec drives arbitrary bytes through the strict spec decoder
// and, for every accepted document, checks the invariants the content
// cache and the durable store depend on:
//
//   - DecodeSpec never panics;
//   - an accepted, valid spec has a canonical encoding, and that
//     encoding is a fixed point (decode(canonical) re-canonicalizes to
//     byte-identical output);
//   - Hash is deterministic and survives the canonical round trip;
//   - accepted means buildable: the machine configuration derives, the
//     address map for it exists, and a controller builds on a device of
//     its standard.
func FuzzDecodeSpec(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"workload":"seq","cores":1,"cycles":20000}`,
		`{"workload":"seq","version":1,"cores":2}`,
		`{"workload":"rand","cores":4,"channels":2,"stores":0.25}`,
		`{"workload":"seq","policy":"fr-fcfs","map":"rbc","wq":8}`,
		`{"workload":"seq","core":4}`,
		`{"totally_unrelated":1}`,
		`{"workload":"seq","cycles":1e30}`,
		`[1,2,3]`,
		`"spec"`,
		`{"workload":`,
		"{\"workload\":\"seq\",\n\"cores\":3}",
		`{"workload":"seq","channels":3}`,
		`{"workload":"seq","standard":"hbm2-2000","channels":5}`,
		`{"workload":"bfs","wq":1}`,
		`{"workload":"bfs","wq":3,"standard":"lpddr5-6400","channels":4,"map":"xor"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		norm := spec.Normalized()
		if norm.Validate() != nil {
			return
		}
		canon, err := norm.Canonical()
		if err != nil {
			t.Fatalf("valid spec has no canonical encoding: %v", err)
		}
		h1, err := norm.Hash()
		if err != nil {
			t.Fatalf("valid spec has no hash: %v", err)
		}
		h2, _ := norm.Hash()
		if h1 != h2 {
			t.Fatalf("hash not deterministic: %s vs %s", h1, h2)
		}

		again, err := DecodeSpec(canon)
		if err != nil {
			t.Fatalf("canonical encoding rejected by DecodeSpec: %v\n%s", err, canon)
		}
		canon2, err := again.Normalized().Canonical()
		if err != nil {
			t.Fatalf("re-canonicalizing decoded canonical form: %v", err)
		}
		if !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding is not a fixed point:\n  first:  %s\n  second: %s", canon, canon2)
		}
		h3, _ := again.Normalized().Hash()
		if h3 != h1 {
			t.Fatalf("hash changed across canonical round trip: %s vs %s", h1, h3)
		}

		_, cfg, err := norm.SimConfig()
		if err != nil {
			t.Fatalf("valid spec derives no machine configuration: %v", err)
		}
		mapper, err := addrmap.Select(cfg.Geom, cfg.SubChannels, cfg.Channels, cfg.Map.String())
		if err != nil {
			t.Fatalf("valid spec has no address map: %v", err)
		}
		ctrl := cfg.Ctrl
		ctrl.SampleInterval = cfg.SampleInterval
		if _, err := memctrl.New(dram.NewDevice(cfg.Geom, cfg.Tim), mapper, ctrl); err != nil {
			t.Fatalf("valid spec builds no controller: %v", err)
		}
		if err := cfg.Hier.Validate(); err != nil {
			t.Fatalf("valid spec has an unusable cache configuration: %v", err)
		}
	})
}
