package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"dramstacks/internal/exp"
)

// resultDoc is the part of a result document the checks read.
type resultDoc struct {
	SpecHash      string             `json:"spec_hash"`
	Cancelled     bool               `json:"cancelled"`
	MemCycles     int64              `json:"mem_cycles"`
	PeakGBps      float64            `json:"peak_gbps"`
	BandwidthGBps map[string]float64 `json:"bandwidth_gbps"`
	LatencyNS     map[string]float64 `json:"latency_ns"`
	AvgLatencyNS  float64            `json:"avg_latency_ns"`
}

// sumTolerance is the relative error allowed when stack components are
// re-added from their JSON values: each component is rounded once, so
// the sums agree to a few ulps, far inside this bound.
const sumTolerance = 1e-9

// checkResult verifies one result document served for the spec whose
// hash is wantHash: the embedded spec_hash (read through
// exp.ResultSpecHash, as the service's recovery does) names the spec,
// the run is complete, the bandwidth components sum to the peak (every
// channel cycle attributed once), and the latency components sum to the
// mean latency. It returns the decoded document for further use.
func checkResult(raw []byte, wantHash string) (resultDoc, error) {
	var doc resultDoc
	got, err := exp.ResultSpecHash(raw)
	if err != nil {
		return doc, err
	}
	if got != wantHash {
		return doc, fmt.Errorf("result carries spec_hash %.12s, want %.12s", got, wantHash)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("undecodable result: %w", err)
	}
	if doc.Cancelled {
		return doc, fmt.Errorf("result %.12s is a cancelled partial", wantHash)
	}
	if doc.MemCycles <= 0 {
		return doc, fmt.Errorf("result %.12s simulated %d memory cycles", wantHash, doc.MemCycles)
	}
	if err := sumsTo("bandwidth", doc.BandwidthGBps, doc.PeakGBps); err != nil {
		return doc, err
	}
	if err := sumsTo("latency", doc.LatencyNS, doc.AvgLatencyNS); err != nil {
		return doc, err
	}
	return doc, nil
}

func sumsTo(what string, parts map[string]float64, total float64) error {
	var sum float64
	for name, v := range parts {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%s component %s is %g", what, name, v)
		}
		sum += v
	}
	if math.Abs(sum-total) > sumTolerance*math.Max(math.Abs(total), 1) {
		return fmt.Errorf("%s components sum to %.12g, want %.12g", what, sum, total)
	}
	return nil
}

// sameDocument reports whether two renderings of one result are the
// same document: a sweep line embeds the compacted form of the bytes
// GET /stacks serves.
func sameDocument(indented, compacted []byte) bool {
	var buf bytes.Buffer
	if err := json.Compact(&buf, indented); err != nil {
		return false
	}
	return bytes.Equal(buf.Bytes(), compacted)
}

// digest hashes result documents in order; identical inputs give an
// identical digest on every run.
type digest struct{ h [32]byte }

func (d *digest) add(doc []byte) {
	sum := sha256.New()
	sum.Write(d.h[:])
	sum.Write(doc)
	copy(d.h[:], sum.Sum(nil))
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:]) }
