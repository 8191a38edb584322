package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadErrors: a module the loader cannot read fails with an error
// that names what is wrong, never with a silently partial load. An
// import cycle is a type error, which TestModuleSelfClean refuses.
func TestLoadErrors(t *testing.T) {
	for _, tc := range []struct {
		name  string
		files map[string]string // module-relative path -> contents
		dir   string            // when set, LoadDir this directory after the load
		want  string
	}{
		{name: "no go.mod", files: map[string]string{"a/a.go": "package a\n"}, want: "go.mod: no such file"},
		{name: "no module line", files: map[string]string{"go.mod": "go 1.22\n"}, want: "no module directive"},
		{
			name:  "unparsable file",
			files: map[string]string{"go.mod": "module m\n", "a/a.go": "package a\nfunc {\n"},
			want:  "load m/a: ",
		},
		{
			name: "import cycle",
			files: map[string]string{
				"go.mod": "module m\n",
				"a/a.go": "package a\n\nimport _ \"m/b\"\n",
				"b/b.go": "package b\n\nimport _ \"m/a\"\n",
			},
			want: "import cycle through m/",
		},
		{
			name:  "no Go files",
			files: map[string]string{"go.mod": "module m\n", "a/a.go": "package a\n", "empty/README": ""},
			dir:   "empty",
			want:  "no buildable Go files in",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			for name, body := range tc.files {
				path := filepath.Join(root, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			m, err := LoadModule(root)
			if err == nil && tc.dir != "" {
				_, err = m.LoadDir(filepath.Join(root, tc.dir), "m/"+tc.dir)
			}
			var got string
			switch {
			case err != nil:
				got = err.Error()
			case len(m.TypeErrors) > 0:
				got = strings.Join(m.TypeErrors, "\n")
			default:
				t.Fatalf("loaded without an error, want one containing %q", tc.want)
			}
			if !strings.Contains(got, tc.want) {
				t.Errorf("error %q, want one containing %q", got, tc.want)
			}
		})
	}
}
