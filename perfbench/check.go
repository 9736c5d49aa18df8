package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"starnuma/internal/core"
)

// referenceSeed is the seed the committed digests were produced at.
const referenceSeed = 0

// referenceJSON maps each pipeline label to the SHA-256 of the
// pipeline's Result at referenceSeed, computed on the generator path.
// Regenerate it with -update-refs only when a change is meant to alter
// simulated results.
//
//go:embed reference_digests.json
var referenceJSON []byte

func loadReferences() (map[string]string, error) {
	refs := map[string]string{}
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference_digests.json: %w", err)
	}
	return refs, nil
}

// digest hashes a Result's JSON encoding, which carries every simulated
// statistic, including the AMAT accumulator, bit-exactly. Metrics and
// Profile are left out, so a run with CollectMetrics or Attrib on digests
// the same as one with both off exactly when those layers are passive.
func digest(r *core.Result) (string, error) {
	c := *r
	c.Metrics, c.Profile = nil, nil
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// sanity rejects a Result no real run produces: nothing retired, or a
// non-finite rate.
func sanity(r *core.Result) error {
	switch {
	case r.Instructions == 0:
		return fmt.Errorf("retired no instructions")
	case !(r.IPC > 0) || math.IsInf(r.IPC, 0):
		return fmt.Errorf("IPC %v", r.IPC)
	case math.IsNaN(r.MPKI) || math.IsInf(r.MPKI, 0):
		return fmt.Errorf("MPKI %v", r.MPKI)
	}
	return nil
}

// checker collects per-pipeline digests and the failures found while
// comparing them. A pipeline fails at most once.
type checker struct {
	refs    map[string]string // nil when the seed has no references
	digests map[string]string
	failed  map[string]string
}

func newChecker(seed int64) (*checker, error) {
	c := &checker{digests: map[string]string{}, failed: map[string]string{}}
	if seed == referenceSeed {
		refs, err := loadReferences()
		if err != nil {
			return nil, err
		}
		c.refs = refs
	}
	return c, nil
}

func (c *checker) fail(label, format string, args ...any) {
	if _, dup := c.failed[label]; !dup {
		c.failed[label] = fmt.Sprintf(format, args...)
	}
}

// record checks one pipeline's result: sanity, then the committed
// reference when the seed has one.
func (c *checker) record(label string, r *core.Result, err error) {
	if err != nil {
		c.fail(label, "%v", err)
		return
	}
	if err := sanity(r); err != nil {
		c.fail(label, "%v", err)
		return
	}
	d, err := digest(r)
	if err != nil {
		c.fail(label, "digest: %v", err)
		return
	}
	c.digests[label] = d
	if c.refs == nil {
		return
	}
	switch want, ok := c.refs[label]; {
	case !ok:
		c.fail(label, "no reference digest")
	case want != d:
		c.fail(label, "digest %s differs from reference %s", d[:12], want[:12])
	}
}

// expect compares every recorded digest with another run of the same
// pipelines (another round, the traced run or the generator path).
func (c *checker) expect(what string, other map[string]string) {
	for _, label := range sortedKeys(other) {
		if d, ok := c.digests[label]; ok && d != other[label] {
			c.fail(label, "digest differs from %s", what)
		}
	}
}
