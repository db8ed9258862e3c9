package service

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/progs"
	"repro/internal/sil/printer"
)

// mixStringByteLoop is the byte-at-a-time fold mixString replaced: the
// reference its word-at-a-time loop must match bit for bit.
func (f *Fp) mixStringByteLoop(s string) {
	f.mix(uint64(len(s)))
	var word uint64
	n := 0
	for i := 0; i < len(s); i++ {
		word = word<<8 | uint64(s[i])
		if n++; n == 8 {
			f.mix(word)
			word, n = 0, 0
		}
	}
	if n > 0 {
		f.mix(word)
	}
}

// TestMixStringMatchesByteLoop: the word-at-a-time mixString folds every
// string exactly as the byte loop does — random strings of every length
// 0–64 (all chunk/tail splits) and every corpus program's canonical print.
func TestMixStringMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var inputs []string
	for n := 0; n <= 64; n++ {
		for k := 0; k < 8; k++ {
			b := make([]byte, n)
			rng.Read(b)
			inputs = append(inputs, string(b))
		}
	}
	for _, e := range progs.Catalog {
		prog, err := progs.Compile(e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		inputs = append(inputs, printer.Print(prog))
	}
	for _, s := range inputs {
		got := Fp{Hi: fpSeedHi, Lo: fpSeedLo}
		want := got
		got.mixString(s)
		want.mixStringByteLoop(s)
		if got != want {
			t.Fatalf("mixString(%q) = %s, byte loop = %s", s, got, want)
		}
	}
}

// TestProgramFingerprintGolden freezes treeadd's fingerprint: cache keys,
// shard routing and the fingerprint echoed in every result body all
// derive from it, so any change to the hash must be deliberate.
func TestProgramFingerprintGolden(t *testing.T) {
	const want = "24b33b4e6c74d897f76f41f5a01e1ba9"
	prog, err := progs.Compile(progs.TreeAdd)
	if err != nil {
		t.Fatal(err)
	}
	if got := ProgramFingerprint(printer.Print(prog), analysis.Options{ExternalRoots: []string{"root"}}).String(); got != want {
		t.Errorf("ProgramFingerprint(treeadd) = %s, want %s", got, want)
	}
	if got := New(Options{}).Analyze(context.Background(), treeAddReq()).Fingerprint; got != want {
		t.Errorf("served treeadd fingerprint = %s, want %s", got, want)
	}
}

// TestFpStringMatchesFmt pins Fp.String to the %016x%016x rendering it
// replaced, leading zeros included.
func TestFpStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fps := []Fp{{}, {Hi: ^uint64(0), Lo: ^uint64(0)}, {Hi: 1, Lo: 0xabc}, {Hi: 0xf << 60}}
	for i := 0; i < 1000; i++ {
		fps = append(fps, Fp{Hi: rng.Uint64() >> uint(rng.Intn(64)), Lo: rng.Uint64() >> uint(rng.Intn(64))})
	}
	for _, f := range fps {
		if got, want := f.String(), fmt.Sprintf("%016x%016x", f.Hi, f.Lo); got != want {
			t.Fatalf("Fp%+v.String() = %s, want %s", f, got, want)
		}
	}
}

// TestFingerprintAllocs: hashing a program allocates nothing — mixString's
// chunk conversion must stay on the stack.
func TestFingerprintAllocs(t *testing.T) {
	prog, err := progs.Compile(progs.AddAndReverse)
	if err != nil {
		t.Fatal(err)
	}
	canon := printer.Print(prog)
	opts := analysis.Options{ExternalRoots: []string{"root"}}
	if n := testing.AllocsPerRun(100, func() { ProgramFingerprint(canon, opts) }); n != 0 {
		t.Errorf("ProgramFingerprint allocates %v times per call, want 0", n)
	}
}

func BenchmarkProgramFingerprint(b *testing.B) {
	prog, err := progs.Compile(progs.AddAndReverse)
	if err != nil {
		b.Fatal(err)
	}
	canon := printer.Print(prog)
	b.SetBytes(int64(len(canon)))
	for i := 0; i < b.N; i++ {
		ProgramFingerprint(canon, analysis.Options{})
	}
}
