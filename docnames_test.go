package repro

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents whose test, benchmark and fuzz names
// TestDocNamesResolve checks.
var citedDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", ".claude/skills/verify/SKILL.md"}

var (
	// definedName matches the declaration of a test, benchmark or fuzz
	// target (methods have a receiver and do not match).
	definedName = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// citedName matches a cited name in group 2. A name right after a dot
	// is a method or field reference, such as Result.TestBlindPenalty.
	citedName = regexp.MustCompile(`(^|[^.\w])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)`)
	// namePattern matches the pattern of a -run, -bench or -fuzz flag.
	namePattern = regexp.MustCompile("-(?:run|bench|fuzz)[ =]('[^']*'|\"[^\"]*\"|[^\\s`]+)")
)

// TestDocNamesResolve fails for every test, benchmark or fuzz target
// that DESIGN.md, EXPERIMENTS.md, README.md or the verify skill cites and
// no _test.go file of the repository defines. A name inside a -run,
// -bench or -fuzz pattern counts as a prefix, since the pattern selects
// every name it begins.
func TestDocNamesResolve(t *testing.T) {
	var defined []string
	walkGoFiles(t, func(path string, src []byte) {
		if strings.HasSuffix(path, "_test.go") {
			for _, m := range definedName.FindAllSubmatch(src, -1) {
				defined = append(defined, string(m[1]))
			}
		}
	})
	exact := make(map[string]bool, len(defined))
	for _, name := range defined {
		exact[name] = true
	}
	resolves := func(name string, prefix bool) bool {
		if exact[name] {
			return true
		}
		for _, d := range defined {
			if prefix && strings.HasPrefix(d, name) {
				return true
			}
		}
		return false
	}

	cited := 0
	for _, doc := range citedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		patterns := namePattern.FindAllStringSubmatchIndex(text, -1)
		for _, m := range citedName.FindAllStringSubmatchIndex(text, -1) {
			start, name := m[4], text[m[4]:m[5]]
			inPattern := false
			for _, p := range patterns {
				if p[2] <= start && start < p[3] {
					inPattern = true
					break
				}
			}
			cited++
			if !resolves(name, inPattern) {
				line := 1 + strings.Count(text[:start], "\n")
				t.Errorf("%s:%d: %s is not defined by any _test.go file", doc, line, name)
			}
		}
	}
	if cited == 0 {
		t.Fatal("no test names found in the docs")
	}
	t.Logf("%d citations checked against %d defined names", cited, len(defined))
}

// TestGofmt fails for every .go file of the repository whose bytes
// differ from what gofmt would write.
func TestGofmt(t *testing.T) {
	files := 0
	walkGoFiles(t, func(path string, src []byte) {
		files++
		got, err := format.Source(src)
		if err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(got, src) {
			t.Errorf("%s is not gofmt-formatted (run gofmt -w %s)", path, path)
		}
	})
	if files == 0 {
		t.Fatal("no .go files found")
	}
}

// TestBenchHarnessVets runs go vet in cmd/ttabench. The harness is a
// module of its own (replace repro => ../..), so go build ./... and go
// vet ./... never compile it; this test fails when a change to the
// packages it uses breaks it. -mod=readonly keeps its go.mod as it is,
// and vet writes nothing into the directory.
func TestBenchHarnessVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the harness module")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goTool, "vet", "-mod=readonly", ".")
	cmd.Dir = filepath.Join("cmd", "ttabench")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in %s: %v\n%s", cmd.Dir, err, out)
	}
}

// walkGoFiles calls fn with the path and contents of every .go file
// under the repository root, skipping dot-directories and testdata.
func walkGoFiles(t *testing.T, fn func(path string, src []byte)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fn(path, src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
