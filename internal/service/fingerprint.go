package service

import (
	"encoding/binary"
	"encoding/hex"

	"repro/internal/analysis"
	"repro/internal/path"
)

// Canonical 128-bit program fingerprints — the result-cache key. The input
// is the PRINTED CANONICAL AST (parse → check → normalize → print), so any
// two sources that parse to the same structure key identically, however
// they were formatted on the wire; the round-trip property test pins that
// Parse(Print(p)) ≡ p, which makes the print a faithful canonical form.
// The hash reuses the two-lane Mix64 construction of the path-set and
// matrix fingerprints (path.Mix64 chaining per lane with distinct seeds);
// unlike those, it hashes names and bytes — never interned IDs — so it is
// stable across Space epochs and across processes.

// Fp is a comparable 128-bit fingerprint.
type Fp struct{ Hi, Lo uint64 }

// String renders the fingerprint as 32 lowercase hex digits (Hi first),
// the same bytes as fmt's %016x%016x.
func (f Fp) String() string {
	var raw [16]byte
	binary.BigEndian.PutUint64(raw[:8], f.Hi)
	binary.BigEndian.PutUint64(raw[8:], f.Lo)
	var out [32]byte
	hex.Encode(out[:], raw[:])
	return string(out[:])
}

const (
	fpSeedHi uint64 = 0x243f6a8885a308d3 // pi
	fpSeedLo uint64 = 0x13198a2e03707344
)

// mix folds one 64-bit word into both lanes.
func (f *Fp) mix(x uint64) {
	f.Hi = path.Mix64(f.Hi ^ x)
	f.Lo = path.Mix64(f.Lo + path.Mix64(x))
}

// mixString folds a length-prefixed string into the fingerprint (the
// prefix keeps concatenations unambiguous): each full 8-byte chunk as one
// big-endian word, then the 1–7 byte tail as one word holding those bytes
// big-endian in its low end.
func (f *Fp) mixString(s string) {
	f.mix(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		f.mix(binary.BigEndian.Uint64([]byte(s[:8])))
	}
	if len(s) > 0 {
		var word uint64
		for i := 0; i < len(s); i++ {
			word = word<<8 | uint64(s[i])
		}
		f.mix(word)
	}
}

// mixInt folds a signed integer.
func (f *Fp) mixInt(v int) { f.mix(uint64(int64(v))) }

// mixOptions folds every analysis option that can change a result — the
// one list ProgramFingerprint, sourceKey and SummaryKey share. The analysis
// worker count is deliberately excluded — the round-based engine is
// bit-identical across pool sizes, so results are worker-independent by
// construction. MaxWorklist is excluded for the same reason as Workers and
// Budgets: a pure work cap can only fail a run, never change a successful
// result's bytes, so folding it would split the cache on a non-semantic
// knob (fppurity enforces this class statically).
func (f *Fp) mixOptions(opts analysis.Options) {
	f.mixInt(len(opts.ExternalRoots))
	for _, r := range opts.ExternalRoots {
		f.mixString(r)
	}
	f.mixInt(opts.MaxContexts)
	f.mixInt(opts.MaxLoopIters)
	f.mixInt(opts.Limits.MaxExact)
	f.mixInt(opts.Limits.MaxSegs)
	f.mixInt(opts.Limits.MaxPaths)
}

// ProgramFingerprint keys one analysis result: the canonical program text
// plus every option that can change the result (mixOptions).
func ProgramFingerprint(canonicalSource string, opts analysis.Options) Fp {
	f := Fp{Hi: fpSeedHi, Lo: fpSeedLo}
	f.mixString("sil-result/v1")
	f.mixString(canonicalSource)
	f.mixOptions(opts)
	return f
}

// sourceKey keys the source index in front of the result cache: the RAW
// request source, byte for byte, plus the resolved options, under its own
// domain tag. The raw bytes determine the canonical print and hence the
// program fingerprint, so a key that matched once names the same cached
// result forever. It is a hash rather than the string itself so the index
// holds 16 bytes per entry whatever the request size.
func sourceKey(source string, opts analysis.Options) Fp {
	f := Fp{Hi: fpSeedHi, Lo: fpSeedLo}
	f.mixString("sil-source/v1")
	f.mixString(source)
	f.mixOptions(opts)
	return f
}
