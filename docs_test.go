package ccfit_test

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/experiments"
)

// citingDocs are the documents whose names TestDocsCiteLiveNames holds
// to the tree.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocsCiteLiveNames fails, by file and line, on any name a document
// cites that the tree no longer has: an internal/… or cmd/… path, a
// Test/Benchmark/Example/Fuzz function, a ccfit-run verb or flag, a
// ccfit-serve or ccfit-worker flag, an experiment id, a kill-matrix row
// or a DESIGN.md section (Go comments' citations included). A line that
// cites CHANGES.md may name what is gone.
func TestDocsCiteLiveNames(t *testing.T) {
	live := loadLiveNames(t)
	for _, doc := range citingDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range live.scan(doc, string(text)) {
			t.Error(f)
		}
	}
	eachFile(t, ".go", func(path, text string) {
		for _, f := range live.sections(path, text, sectionCite) {
			t.Error(f)
		}
	})

	t.Run("planted", func(t *testing.T) {
		doc := "A planted doc.\n" +
			"See `internal/nosuch/gone.go` and `go test -run TestNoSuchThing ./internal/sim`.\n" +
			"Run `ccfit-run -nosuchflag fig7a`, then `ccfit-run fig99`.\n" +
			"Serve with `ccfit-serve -addr :0 -nosuchflag 1`.\n" +
			"Matrix row `no-such-row` is gone, `ccfit-marking-rate` is not.\n" +
			"DESIGN.md §" + "12 explains it.\n" +
			"`TestGoneLong` went in an entry of CHANGES.md.\n"
		got := live.scan("planted.md", doc)
		if len(got) != 7 {
			t.Errorf("%d findings, want 7:\n%s", len(got), strings.Join(got, "\n"))
		}
	})
}

// liveNames is what the tree has for a document to cite.
type liveNames struct {
	tests    map[string]bool
	flags    map[string]map[string]bool // tool ("" = the figures, a verb, ccfit-serve or ccfit-worker) → flag → takes a value
	ids      map[string]bool
	rows     map[string]bool // kill-matrix rows
	headings map[string]bool
}

func loadLiveNames(t *testing.T) liveNames {
	t.Helper()
	live := liveNames{tests: map[string]bool{}, flags: map[string]map[string]bool{}, ids: map[string]bool{}, rows: map[string]bool{}, headings: map[string]bool{}}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Example|Fuzz)\w*)\(`)
	eachFile(t, "_test.go", func(_, text string) {
		for _, m := range testFunc.FindAllStringSubmatch(text, -1) {
			live.tests[m[1]] = true
		}
	})

	// The CLI's own usage text lists its verbs and each tool's flags.
	usage := func(args ...string) string {
		var b strings.Builder
		cli.Main(args, io.Discard, &b)
		return b.String()
	}
	flagLine := regexp.MustCompile(`(?m)^  -([\w-]+)( \S+)?`)
	tools := []string{""}
	for _, m := range regexp.MustCompile(`(?m)^  ccfit-run (\w+) +\[flags\]`).FindAllStringSubmatch(usage("-h"), -1) {
		tools = append(tools, m[1])
	}
	for _, tool := range tools {
		live.flags[tool] = map[string]bool{"h": false, "help": false}
		for _, m := range flagLine.FindAllStringSubmatch(usage(strings.Fields(tool+" -h")...), -1) {
			live.flags[tool][m[1]] = m[2] != ""
		}
	}
	if len(tools) < 2 || len(live.flags[""]) < 4 {
		t.Fatalf("read verbs %q and figure flags %v off ccfit-run -h", tools, live.flags[""])
	}

	// The servers' flags are their main.go's declarations on
	// flag.CommandLine or a flag set named fs, plus the shared flags they
	// register, which the figures take too.
	decl := regexp.MustCompile(`\b(?:flag|fs)\.(\w+)\((?:&[\w.]+, )?"([\w-]+)"`)
	register := regexp.MustCompile(`\.Register\((?:flag\.CommandLine|fs)((?:, "[\w-]+")+)\)`)
	quoted := regexp.MustCompile(`"([\w-]+)"`)
	for _, tool := range []string{"ccfit-serve", "ccfit-worker"} {
		src, err := os.ReadFile(filepath.Join("cmd", tool, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{"h": false, "help": false}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			if m[1] != "NewFlagSet" {
				flags[m[2]] = !strings.HasPrefix(m[1], "Bool")
			}
		}
		for _, m := range register.FindAllStringSubmatch(string(src), -1) {
			for _, q := range quoted.FindAllStringSubmatch(m[1], -1) {
				flags[q[1]] = live.flags[""][q[1]]
			}
		}
		if len(flags) < 5 {
			t.Fatalf("read flags %v off %s's main.go", flags, tool)
		}
		live.flags[tool] = flags
	}

	// A row is a matrix line that is neither comment nor gate, up to the
	// first "== " summary section.
	matrix, err := os.ReadFile(filepath.Join("internal", "mutants", "testdata", "kill_matrix.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rows, _, _ := strings.Cut(string(matrix), "\n== ")
	for _, line := range strings.Split(rows, "\n") {
		if line != "" && line[0] != '#' && line[0] != '\t' {
			live.rows[line] = true
		}
	}

	for _, e := range append(experiments.Registry(), experiments.Extras()...) {
		live.ids[e.ID] = true
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(string(design), -1) {
		live.headings[m[1]] = true
	}
	return live
}

// eachFile calls fn with the path and text of every file of the tree
// whose name ends in suffix, leaving out version control, build output
// and test fixtures.
func eachFile(t *testing.T, suffix string, fn func(path, text string)) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return fs.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, suffix):
			return nil
		}
		text, err := os.ReadFile(path)
		fn(path, string(text))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

var (
	fence    = regexp.MustCompile("(?m)^```(\\w*)\n((?s:.*?))^```")
	span     = regexp.MustCompile("`([^`\n]+(?:\n[^`\n]+)*)`")
	repoPath = regexp.MustCompile(`(?:^|[^\w-])((?:internal|cmd)/[\w./-]*)`)
	testName = regexp.MustCompile(`(^|[^\w.])((?:Test|Benchmark|Example|Fuzz)\w+)(\*?)`)
	runArg   = regexp.MustCompile(`-(?:run|bench|fuzz)(?:=|\s+)'?[^'\s]+`)
	command  = regexp.MustCompile(`ccfit-(run|figures|serve|worker)(?:\s|$)`)
	rowName  = regexp.MustCompile(`^[a-z0-9]+(?:-[a-z0-9]+)+$`)
	idShaped = regexp.MustCompile(`^((?:fig|table)\d+[a-z]?|x[a-z0-9]+)(?:/\w+)?$`)
	idWord   = regexp.MustCompile(`^[a-z0-9]+$`)
	field    = regexp.MustCompile(`\S+`)

	// Others cite "DESIGN.md §N" or "DESIGN §N" (in a Go comment maybe
	// across a line break), DESIGN.md its own sections as a bare "§N"; one
	// citation may list several ("§5/§9", "§7–§10").
	sectionCite     = regexp.MustCompile(`DESIGN(?:\.md)?\s+(?://\s*)?(§\d+(?:\s*(?:/|,|–|-|and|or)\s*§\d+)*)`)
	bareSectionCite = regexp.MustCompile(`(§\d+)`)
	sectionNumber   = regexp.MustCompile(`§(\d+)`)
)

// scan returns one "file:line: what" finding per dead name in a
// Markdown document. Names are read from code (fenced blocks and inline
// spans, which may wrap lines), paths and section citations from all of
// the text.
func (live liveNames) scan(doc, text string) []string {
	var out []string
	report := func(off int, format string, args ...any) {
		if f := finding(doc, text, off, format, args...); f != "" {
			out = append(out, f)
		}
	}

	for _, m := range repoPath.FindAllStringSubmatchIndex(text, -1) {
		p := strings.TrimRight(strings.TrimSuffix(text[m[2]:m[3]], "..."), "./")
		if _, err := os.Stat(p); err != nil {
			report(m[2], "path %s does not exist", p)
		}
	}
	cite := sectionCite
	if doc == "DESIGN.md" {
		cite = bareSectionCite
	}
	out = append(out, live.sections(doc, text, cite)...)

	var code [][2]int // offsets of code in text
	for _, m := range fence.FindAllStringSubmatchIndex(text, -1) {
		// A fenced block is one command line per line, backslash
		// continuations joined; a "text" block is prose.
		if text[m[2]:m[3]] == "text" {
			continue
		}
		block := strings.ReplaceAll(text[m[4]:m[5]], "\\\n", "  ")
		for off := 0; off < len(block); {
			n := strings.IndexByte(block[off:], '\n')
			if n < 0 {
				n = len(block) - off
			}
			code = append(code, [2]int{m[4] + off, m[4] + off + n})
			off += n + 1
		}
	}
	rest := fence.ReplaceAllStringFunc(text, func(s string) string { return strings.Repeat(" ", len(s)) })
	for _, m := range span.FindAllStringSubmatchIndex(rest, -1) {
		code = append(code, [2]int{m[2], m[3]})
		if name := text[m[2]:m[3]]; rowName.MatchString(name) && !command.MatchString(name) &&
			!live.rows[name] && citesRow(text, m[2]) {
			report(m[2], "no kill-matrix row %s", name)
		}
	}

	for _, c := range code {
		seg := strings.ReplaceAll(text[c[0]:c[1]], "\\\n", "  ")
		patterns := runArg.FindAllStringIndex(seg, -1)
		for _, m := range testName.FindAllStringSubmatchIndex(seg, -1) {
			name, glob := seg[m[4]:m[5]], m[7] > m[6]
			inPattern := false
			for _, p := range patterns {
				inPattern = inPattern || p[0] <= m[4] && m[5] <= p[1]
			}
			if !live.tests[name] && !((glob || inPattern) && live.hasTestPrefix(name)) {
				report(c[0]+m[4], "no test function %s", name)
			}
		}
		if m := idShaped.FindStringSubmatch(strings.TrimSpace(seg)); m != nil && !live.ids[m[1]] {
			report(c[0], "no experiment %s", m[1])
		}
		for _, m := range command.FindAllStringSubmatchIndex(seg, -1) {
			live.command(seg[m[1]:], c[0]+m[1], seg[m[2]:m[3]], report)
		}
	}
	return out
}

// command checks one ccfit-run (verbs allowed), ccfit-figures,
// ccfit-serve or ccfit-worker command line: bin is the part of the
// binary's name after "ccfit-", args the text after the name and off its
// offset. Positional arguments of the figures are experiment ids; a word
// that is not lower-case letters and digits is a placeholder.
func (live liveNames) command(args string, off int, bin string, report func(int, string, ...any)) {
	var fields []string
	var at []int
	for _, m := range field.FindAllStringIndex(args, -1) {
		f := args[m[0]:m[1]]
		if strings.ContainsAny(f, "|;&>#)") {
			break
		}
		fields, at = append(fields, f), append(at, off+m[0])
	}
	tool, who := "", "ccfit-"+bin
	switch {
	case bin == "serve" || bin == "worker":
		tool = who
	case bin == "run" && len(fields) > 0 && live.flags[fields[0]] != nil:
		tool, fields, at = fields[0], fields[1:], at[1:]
		who += " " + tool
	}
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		if !strings.HasPrefix(f, "-") {
			if tool == "" && idWord.MatchString(f) && !live.ids[f] {
				report(at[i], "no experiment %s", f)
			}
			continue
		}
		name, _, hasValue := strings.Cut(strings.TrimLeft(f, "-"), "=")
		if takes, ok := live.flags[tool][name]; !ok {
			report(at[i], "%s has no flag -%s", who, name)
		} else if takes && !hasValue {
			i++
		}
	}
}

// hasTestPrefix reports whether some test function's name starts with
// name, as a -run pattern's alternatives and a trailing * do.
func (live liveNames) hasTestPrefix(name string) bool {
	for n := range live.tests {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// sections returns a finding for each DESIGN.md section cite names that
// has no "## N." heading.
func (live liveNames) sections(file, text string, cite *regexp.Regexp) []string {
	var out []string
	for _, m := range cite.FindAllStringSubmatchIndex(text, -1) {
		for _, n := range sectionNumber.FindAllStringSubmatch(text[m[2]:m[3]], -1) {
			if live.headings[n[1]] {
				continue
			}
			if f := finding(file, text, m[2], "DESIGN.md has no §%s", n[1]); f != "" {
				out = append(out, f)
			}
		}
	}
	return out
}

// citesRow reports whether the line holding offset off of text, or the
// line above it (a citation may wrap), says "matrix row": a span there
// shaped like a row name names a kill-matrix row.
func citesRow(text string, off int) bool {
	start := strings.LastIndexByte(text[:off], '\n')
	start = strings.LastIndexByte(text[:max(start, 0)], '\n') + 1
	end := strings.IndexByte(text[off:], '\n')
	if end < 0 {
		end = len(text) - off
	}
	return strings.Contains(strings.ToLower(text[start:off+end]), "matrix row")
}

// finding is "file:line: what" for a dead name at offset off of text, or
// "" when that line cites CHANGES.md, which may name what is gone.
func finding(file, text string, off int, format string, args ...any) string {
	start := strings.LastIndexByte(text[:off], '\n') + 1
	end := strings.IndexByte(text[off:], '\n')
	if end < 0 {
		end = len(text) - off
	}
	if strings.Contains(text[start:off+end], "CHANGES.md") {
		return ""
	}
	return fmt.Sprintf("%s:%d: %s", file, strings.Count(text[:off], "\n")+1, fmt.Sprintf(format, args...))
}
