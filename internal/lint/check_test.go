package lint

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// writeModule writes files (module-relative path -> contents) into a
// fresh directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// drop is a package body that drops f's error on line 5, column 12.
const drop = "\n\nfunc f() error { return nil }\n\nfunc g() { f() }\n"

// TestScopeComplete: Check covers the packages under internal/ and
// nothing else: not cmd/, not test files, not testdata.
func TestScopeComplete(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                   "module m\n",
		"internal/a/b/b.go":        "package b" + drop,
		"internal/a/b/x_test.go":   "package b\n\nfunc h() { f() }\n",
		"internal/a/testdata/t.go": "package t" + drop,
		"cmd/c/c.go":               "package c" + drop,
	})
	diags, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].String() != "internal/a/b/b.go:5:12: [unchecked-err] result of error-returning f discarded: a failure here vanishes silently" {
		t.Errorf("got %v, want the one finding in internal/a/b/b.go", diags)
	}
}

// TestScopeDefaultsClosed: a package added anywhere under internal/ —
// top level or nested below a directory with no Go files — is checked
// with no entry anywhere.
func TestScopeDefaultsClosed(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                           "module m\n",
		"internal/not-a-real-package/p.go": "package p" + drop,
		"internal/x/y/z/z.go":              "package z" + drop,
	})
	diags, err := Check(root)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, d := range diags {
		files = append(files, d.File)
	}
	if want := []string{"internal/not-a-real-package/p.go", "internal/x/y/z/z.go"}; !slices.Equal(files, want) {
		t.Errorf("findings in %v, want one in each of %v", files, want)
	}
}

// TestLoadErrors: a module Check cannot fully load fails with an error
// that names what is wrong, never with a silently partial result.
func TestLoadErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string // module-relative path -> contents
		want  string
	}{
		{name: "no go.mod", files: map[string]string{"internal/a/a.go": "package a\n"}, want: "go.mod: no such file"},
		{name: "no module line", files: map[string]string{"go.mod": "go 1.22\n"}, want: "no module directive"},
		{
			name:  "unparsable file",
			files: map[string]string{"go.mod": "module m\n", "internal/a/a.go": "package a\nfunc {\n"},
			want:  "load m/internal/a: ",
		},
		{
			name:  "type error",
			files: map[string]string{"go.mod": "module m\n", "internal/a/a.go": "package a\n\nvar x int = \"s\"\n"},
			want:  "load m/internal/a: ",
		},
		{
			name: "import cycle",
			files: map[string]string{
				"go.mod":          "module m\n",
				"internal/a/a.go": "package a\n\nimport _ \"m/internal/b\"\n",
				"internal/b/b.go": "package b\n\nimport _ \"m/internal/a\"\n",
			},
			want: "import cycle through m/internal/",
		},
		{
			name: "no Go files",
			files: map[string]string{
				"go.mod":          "module m\n",
				"internal/a/a.go": "package a\n\nimport _ \"m/empty\"\n",
				"empty/README":    "",
			},
			want: "no buildable Go files in",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Check(writeModule(t, tc.files))
			if err == nil {
				t.Fatalf("checked without an error, want one containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q, want one containing %q", err, tc.want)
			}
		})
	}
}
