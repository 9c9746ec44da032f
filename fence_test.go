package traclus_test

import (
	"go/build"
	"strings"
	"testing"
)

// TestShippedBinariesImportNoSeedPackage fences the packages the shipped
// binaries do not need — the seed packages and Appendix D's OPTICS: the
// non-test imports of cmd/traclusd and cmd/traclus, followed transitively,
// must never reach one of them. Only the paper-experiment harness and the
// examples may import these, which is what lets each be fenced under the
// harness or deleted.
func TestShippedBinariesImportNoSeedPackage(t *testing.T) {
	const module = "repro"
	fenced := map[string]bool{
		module + "/internal/tsdist":      true,
		module + "/internal/regmix":      true,
		module + "/internal/linalg":      true,
		module + "/internal/optics":      true,
		module + "/internal/simplify":    true,
		module + "/internal/validate":    true,
		module + "/internal/experiments": true,
	}
	for _, bin := range []string{module + "/cmd/traclusd", module + "/cmd/traclus"} {
		// via maps each module package reached to the package importing it,
		// so a failure can print the whole import chain.
		via := map[string]string{bin: ""}
		queue := []string{bin}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			dir := "." + strings.TrimPrefix(pkg, module)
			bp, err := build.ImportDir(dir, 0)
			if err != nil {
				t.Fatalf("%s: %v", dir, err)
			}
			for _, imp := range bp.Imports { // build.Package.Imports excludes test files
				if imp != module && !strings.HasPrefix(imp, module+"/") {
					continue
				}
				if _, ok := via[imp]; ok {
					continue
				}
				via[imp] = pkg
				queue = append(queue, imp)
				if fenced[imp] {
					chain := imp
					for p := pkg; p != ""; p = via[p] {
						chain = p + " → " + chain
					}
					t.Errorf("%s imports the fenced package %s: %s", bin, imp, chain)
				}
			}
		}
		// A walk that never reached the library would pass vacuously.
		if _, ok := via[module+"/internal/segclust"]; !ok {
			t.Errorf("%s: the import walk never reached %s/internal/segclust", bin, module)
		}
	}
}
