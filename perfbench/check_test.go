package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dramstacks/internal/exp"
)

func runOne(t *testing.T, spec exp.Spec) ([]byte, string) {
	t.Helper()
	res, err := exp.RunSpec(context.Background(), spec, exp.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := exp.ResultJSON(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return b, h
}

func TestCheckResultAcceptsRealResult(t *testing.T) {
	b, h := runOne(t, exp.Spec{Workload: "seq,random", Cores: 2, Budget: 20000})
	if _, err := checkResult(b, h); err != nil {
		t.Fatalf("genuine result rejected: %v", err)
	}
}

func TestCheckResultRejectsCorruption(t *testing.T) {
	b, h := runOne(t, exp.Spec{Workload: "latcrit,bwhog", Cores: 2, Budget: 20000, QoS: "win=2048,cap=1:16,rt=0"})
	other := strings.Repeat("0", 64)
	cases := map[string]struct {
		doc  []byte
		hash string
	}{
		"wrong spec hash":   {b, other},
		"rewritten hash":    {bytes.Replace(b, []byte(h), []byte(other), 1), h},
		"bandwidth drifted": {bytes.Replace(b, []byte(`"read": `), []byte(`"read": 1`), 1), h},
		"latency drifted":   {bytes.Replace(b, []byte(`"avg_latency_ns": `), []byte(`"avg_latency_ns": 9`), 1), h},
		"cancelled partial": {bytes.Replace(b, []byte(`"channels"`), []byte(`"cancelled": true, "channels"`), 1), h},
		"truncated":         {b[:len(b)/2], h},
	}
	for name, c := range cases {
		if bytes.Equal(c.doc, b) && c.hash == h {
			t.Fatalf("%s: corruption did not apply", name)
		}
		if _, err := checkResult(c.doc, c.hash); err == nil {
			t.Errorf("%s: corrupted result accepted", name)
		}
	}
}

func TestSameDocument(t *testing.T) {
	b, _ := runOne(t, exp.Spec{Workload: "copy,triad", Cores: 2, Budget: 20000})
	var compact bytes.Buffer
	if err := json.Compact(&compact, b); err != nil {
		t.Fatal(err)
	}
	if !sameDocument(b, compact.Bytes()) {
		t.Fatal("a document and its compacted form differ")
	}
	flipped := bytes.Replace(compact.Bytes(), []byte(`"mem_cycles":`), []byte(`"mem_cycles":1`), 1)
	if sameDocument(b, flipped) {
		t.Fatal("a changed document compares equal")
	}
}

func TestDigestOrderSensitive(t *testing.T) {
	var a, b digest
	a.add([]byte("x"))
	a.add([]byte("y"))
	b.add([]byte("y"))
	b.add([]byte("x"))
	if a.String() == b.String() {
		t.Fatal("digest ignores order")
	}
}
