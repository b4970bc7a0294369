package trace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/multiflow-repro/trace/internal/xp"
)

// TestImageGolden pins the compiler's output: every program of the corpus
// (examples/*.mf, testdata/sort.mf, the xp workloads and the mixed app) is
// compiled at O0/O1/O2 on Trace 7/14/28, plus O2 on the 4-pair ideal
// machine, and the SHA-256 of each image's words, packed stream and entry
// address must match testdata/images.sha256. A change that is meant to
// leave code generation alone (a refactor of the scheduler's bookkeeping,
// say) must keep every line; a change that is meant to alter schedules
// regenerates the file from the list this test prints on a mismatch.
func TestImageGolden(t *testing.T) {
	type prog struct{ name, src string }
	var progs []prog
	files, err := filepath.Glob("examples/*.mf")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range append(files, "testdata/sort.mf") {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{f, string(src)})
	}
	for _, w := range append(xp.AllWorkloads(), xp.MixedApp()) {
		progs = append(progs, prog{"xp/" + w.Name, w.Src})
	}
	type config struct {
		name string
		opts Options
	}
	var configs []config
	for _, lvl := range []struct {
		name string
		opt  OptLevel
	}{{"O0", OptNone}, {"O1", OptLight}, {"O2", OptFull}} {
		for _, m := range []Config{Trace7(), Trace14(), Trace28()} {
			configs = append(configs, config{
				fmt.Sprintf("%s/trace%d", lvl.name, 7*m.Pairs), Options{Config: m, OptLevel: lvl.opt}})
		}
	}
	configs = append(configs, config{"O2/ideal4", Options{Config: Ideal(4), OptLevel: OptFull}})

	var got []string
	for _, p := range progs {
		for _, c := range configs {
			art, err := Build(context.Background(), p.src, c.opts)
			if err != nil {
				t.Fatalf("%s %s: %v", p.name, c.name, err)
			}
			img := art.Image()
			buf := imageBytes(t, img)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(img.Entry))
			got = append(got, fmt.Sprintf("%x  %s %s", sha256.Sum256(buf), p.name, c.name))
		}
	}
	want, err := os.ReadFile("testdata/images.sha256")
	if err != nil {
		t.Fatal(err)
	}
	gotText := strings.Join(got, "\n") + "\n"
	if gotText == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range got {
		if i >= len(wantLines) || wantLines[i] != line {
			t.Errorf("image differs: %s", line)
		}
	}
	if len(wantLines) != len(got) {
		t.Errorf("testdata/images.sha256 has %d lines, the corpus gives %d", len(wantLines), len(got))
	}
	t.Errorf("images differ from testdata/images.sha256; the corpus gives:\n%s", gotText)
}
