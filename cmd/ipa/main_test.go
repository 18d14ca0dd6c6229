package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/apps"
	"ipa/internal/spec"
)

func TestLoadSpecBundled(t *testing.T) {
	for name := range bundled {
		s, err := loadSpec("", name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name == "" || len(s.Operations) == 0 {
			t.Fatalf("%s: empty spec", name)
		}
	}
	if _, err := loadSpec("", "nope"); err == nil {
		t.Fatal("unknown app must error")
	}
	if _, err := loadSpec("", ""); err == nil {
		t.Fatal("missing flags must error")
	}
}

// TestSpecStringKeepsTags pins that a bundled spec's text carries its
// tags and its injected marks: Classify reads the tags and mount the
// marks, so a spec round-tripped through String (the checked-in patched
// specs are) must lose neither. Each bundled original and each patched
// spec prints as a fixed point of Parse.
func TestSpecStringKeepsTags(t *testing.T) {
	for name, mk := range bundled {
		src, ok := apps.Patched(name)
		if !ok {
			t.Fatalf("%s: no checked-in patched spec", name)
		}
		for _, s := range []*spec.Spec{mk(), spec.MustParse(src)} {
			printed := s.String()
			back, err := spec.Parse(printed)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(s.Tags) == 0 || !slices.Equal(back.Tags, s.Tags) {
				t.Errorf("%s: tags %q after a round trip through String, want %q", name, back.Tags, s.Tags)
			}
			if again := back.String(); again != printed {
				t.Errorf("%s: Parse(s.String()).String() differs from s.String() (- s, + round trip):\n%s", name, lineDiff(printed, again))
			}
		}
	}
}

func TestLoadSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.spec")
	src := "spec x\ninvariant forall (A: a) :- p(a)\noperation f(A: a) {\n p(a) := true\n}\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := loadSpec(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "x" {
		t.Fatalf("name = %q", s.Name)
	}
	if _, err := loadSpec(filepath.Join(dir, "missing.spec"), ""); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestPromptChooser(t *testing.T) {
	read, write, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer read.Close()
	out, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	if _, err := write.WriteString("1\n\nbogus\n99\n"); err != nil {
		t.Fatal(err)
	}
	write.Close()

	chooser := promptChooser(read, out)
	c := &analysis.Conflict{}
	s, _ := loadSpec("", "tournament")
	c.Op1, c.Op2 = s.Operations[0], s.Operations[1]
	repairs := make([]analysis.Repair, 3)

	if got := chooser(c, repairs); got != 1 {
		t.Fatalf("explicit choice = %d, want 1", got)
	}
	if got := chooser(c, repairs); got != 0 {
		t.Fatalf("empty line should default to 0, got %d", got)
	}
	if got := chooser(c, repairs); got != 0 {
		t.Fatalf("bogus input should default to 0, got %d", got)
	}
	if got := chooser(c, repairs); got != 0 {
		t.Fatalf("out-of-range should default to 0, got %d", got)
	}
	// EOF: default.
	if got := chooser(c, repairs); got != 0 {
		t.Fatalf("EOF should default to 0, got %d", got)
	}

	data, _ := os.ReadFile(out.Name())
	if !strings.Contains(string(data), "choose resolution") {
		t.Fatal("prompt not written")
	}
}
