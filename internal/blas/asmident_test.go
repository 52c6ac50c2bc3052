package blas

import (
	"debug/elf"
	"encoding/binary"
	"flag"
	"maps"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var asmParent = flag.String("asmparent", "", "internal/blas test binary built at another commit for TestAsmIdentity to compare with")

// TestAsmIdentity is the proof that a change to the assembly is invisible to
// the machine (DESIGN "Assembly is written once"): every TEXT symbol of the
// package that both binaries have has the same machine code in a test binary
// built from this tree (`go test -c`, which keeps the symbol table a test run
// strips) as in the one -asmparent names, built by `go test -c
// ./internal/blas` at the parent commit. A run of bytes may differ only as a
// RIP-relative 32-bit displacement that reaches the same symbol at the same
// offset in both binaries, because the linker places code and data anew. A
// symbol only one binary has is new or gone code, not changed code: it is
// logged as added or removed by name and does not fail the test. -v logs one
// line per shared symbol: its size in each binary and whether the code is
// identical.
func TestAsmIdentity(t *testing.T) {
	if *asmParent == "" {
		t.Skip("no -asmparent binary to compare with")
	}
	self := filepath.Join(t.TempDir(), "blas.test")
	if out, err := exec.Command("go", "test", "-c", "-o", self, ".").CombinedOutput(); err != nil {
		t.Fatalf("go test -c: %v\n%s", err, out)
	}
	parent, change := loadImage(t, *asmParent), loadImage(t, self)
	all := maps.Clone(parent.text)
	maps.Copy(all, change.text)
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, inParent := parent.text[name]
		c, inChange := change.text[name]
		if !inParent {
			t.Logf("%-20s %6d %6d  added", name, 0, len(c.code))
			continue
		}
		if !inChange {
			t.Logf("%-20s %6d %6d  removed", name, len(p.code), 0)
			continue
		}
		same := sameCode(parent, change, p, c)
		t.Logf("%-20s %6d %6d  identical: %v", name, len(p.code), len(c.code), same)
		if !same {
			t.Errorf("%s: machine code differs from -asmparent", name)
		}
	}
}

// image is what TestAsmIdentity reads of a binary: the code of every
// assembly symbol of the package, and every symbol by address.
type image struct {
	text map[string]asmSym
	syms []elf.Symbol
}

type asmSym struct {
	addr uint64
	code []byte
}

func loadImage(t *testing.T, path string) *image {
	f, err := elf.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	syms, err := f.Symbols()
	if err != nil {
		t.Fatal(err)
	}
	im := &image{text: map[string]asmSym{}, syms: syms}
	sort.Slice(im.syms, func(i, j int) bool { return im.syms[i].Value < im.syms[j].Value })
	for _, s := range syms {
		name, ok := strings.CutPrefix(s.Name, "repro/internal/blas.")
		if !ok || !strings.HasSuffix(name, ".abi0") || int(s.Section) >= len(f.Sections) {
			continue
		}
		sec := f.Sections[s.Section]
		data, err := sec.Data()
		if err != nil {
			t.Fatal(err)
		}
		off := s.Value - sec.Addr
		im.text[strings.TrimSuffix(name, ".abi0")] = asmSym{s.Value, data[off : off+s.Size]}
	}
	return im
}

// at names the symbol holding address a, and a's offset in it.
func (im *image) at(a uint64) (string, uint64, bool) {
	i := sort.Search(len(im.syms), func(i int) bool { return im.syms[i].Value > a }) - 1
	for ; i >= 0; i-- {
		s := im.syms[i]
		if s.Value == a || a < s.Value+s.Size {
			return s.Name, a - s.Value, true
		}
		if s.Size != 0 {
			break
		}
	}
	return "", 0, false
}

// sameCode compares two copies of a symbol's code: equal bytes, or a
// differing run of at most four bytes that, read as a disp32 followed by up
// to four immediate bytes, addresses the same place in both binaries.
func sameCode(pi, ci *image, p, c asmSym) bool {
	if len(p.code) != len(c.code) {
		return false
	}
	for i := 0; i < len(p.code); i++ {
		if p.code[i] == c.code[i] {
			continue
		}
		j := i
		for j < len(p.code) && p.code[j] != c.code[j] {
			j++
		}
		next := -1
	window:
		for w := max(0, j-4); w <= i && w+4 <= len(p.code); w++ {
			dp := int32(binary.LittleEndian.Uint32(p.code[w:]))
			dc := int32(binary.LittleEndian.Uint32(c.code[w:]))
			for imm := uint64(0); imm <= 4; imm++ {
				end := uint64(w) + 4 + imm
				np, op, okp := pi.at(p.addr + end + uint64(int64(dp)))
				nc, oc, okc := ci.at(c.addr + end + uint64(int64(dc)))
				if okp && okc && np == nc && op == oc {
					next = w + 4
					break window
				}
			}
		}
		if next < 0 {
			return false
		}
		i = next - 1
	}
	return true
}
