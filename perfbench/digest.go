package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"ignite/internal/obs"
	"ignite/internal/workload"
)

// Output checks. Every run digests what it produced and compares the digest
// with the one stored for its seed in digests.json, so a change that alters
// any document or served result fails the run instead of looking faster.

//go:embed digests.json
var storedDigestsJSON []byte

// digestFile is digests.json: workload name -> input key -> hex digest.
type digestFile map[string]map[string]string

func loadDigests() (digestFile, error) {
	d := digestFile{}
	if err := json.Unmarshal(storedDigestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// picksKey names the inputs of a sweep-dist sweep: its functions.
func picksKey(specs []workload.Spec) string {
	return "functions=" + functionNames(specs)
}

// digestKey names the inputs a digest depends on: the seed, and for
// serve-mix also the schedule length.
func digestKey(workload string, seed uint64, seconds int) string {
	if workload == "serve-mix" {
		return fmt.Sprintf("seed=%d,seconds=%d", seed, seconds)
	}
	return fmt.Sprintf("seed=%d", seed)
}

// canonicalDocument encodes a result document with the fields that
// describe the environment rather than the result (generation time, Go
// version, scheduler width) cleared.
func canonicalDocument(doc obs.Document) ([]byte, error) {
	doc.Manifest.Generated = ""
	doc.Manifest.GoVersion = ""
	doc.Manifest.Parallel = 0
	return doc.Encode()
}

// docDigests accumulates the canonical documents of one sweep, in order.
type docDigests struct {
	ids  []string
	sums [][32]byte
}

func (d *docDigests) add(id string, doc obs.Document) error {
	data, err := canonicalDocument(doc)
	if err != nil {
		return fmt.Errorf("encode %s: %w", id, err)
	}
	d.ids = append(d.ids, id)
	d.sums = append(d.sums, sha256.Sum256(data))
	return nil
}

// digest combines the documents.
func (d *docDigests) digest() string {
	h := sha256.New()
	for i := range d.ids {
		fmt.Fprintf(h, "%s %x\n", d.ids[i], d.sums[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultDigest hashes served results keyed by cell, in sorted key order.
func resultDigest(results map[string][]byte) string {
	keys := make([]string, 0, len(results))
	for k := range results {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s %s\n", k, results[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checker counts output checks and their failures.
type checker struct {
	done   int
	failed int
	notes  []string
}

// expect records one check: got must equal want.
func (c *checker) expect(what, got, want string) {
	c.done++
	if got != want {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf("%s: got %.16s, want %.16s", what, got, want))
	}
}

// stored checks got against the digest stored for these inputs, when one
// is stored; seeds without a stored digest rely on the run's cross-checks.
func (c *checker) stored(stored digestFile, workload, key, got string) {
	want, ok := stored[workload][key]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no stored digest for %s %s (digest %s)\n", workload, key, got)
		return
	}
	c.expect("stored digest "+key, got, want)
}
