// Package catalogtest guards the shared platform and workload catalogs
// in tests. hw.PlatformByName and workload.ByName hand out the catalog
// entries themselves, so a test that writes through a looked-up value
// instead of a Clone corrupts every later lookup in its test binary.
// Main, run as a package's TestMain, fails the binary when that
// happened; LeafPaths and Perturb walk a value's leaf fields for tests
// that must touch every one of them.
package catalogtest

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// Main runs m's tests, then checks the catalogs with intact. It exits
// non-zero when a test failed or an entry changed. A package calls it
// from its TestMain:
//
//	func TestMain(m *testing.M) { catalogtest.Main(m) }
func Main(m *testing.M) {
	code := m.Run()
	if err := intact(); err != nil {
		fmt.Fprintln(os.Stderr, "catalogtest:", err)
		code = 1
	}
	os.Exit(code)
}

// intact reports the first catalog entry that differs from a freshly
// built one: every PlatformByName entry against hw.AllPlatforms, with
// the shared ladders its PStateBins and SMClockBins hand out against
// the fresh spec's, and every ByName entry against
// workload.AllWorkloads.
func intact() error {
	for _, want := range hw.AllPlatforms() {
		got, err := hw.PlatformByName(want.Name)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("platform %q was written through a lookup: the catalog entry no longer equals a fresh build", want.Name)
		}
		if got.CPU != nil && !reflect.DeepEqual(got.CPU.PStateBins(), want.CPU.PStateBins()) ||
			got.GPU != nil && !reflect.DeepEqual(got.GPU.SMClockBins(), want.GPU.SMClockBins()) {
			return fmt.Errorf("platform %q: its shared DVFS ladder was written through: it no longer equals a fresh build", want.Name)
		}
	}
	for _, want := range workload.AllWorkloads() {
		got, err := workload.ByName(want.Name)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("workload %q was written through a lookup: the catalog entry no longer equals a fresh build", want.Name)
		}
	}
	return nil
}

// LeafPaths appends the path of every leaf field reachable from v to
// out, following non-nil pointers and every slice element; path names
// v itself. It fails t on a kind it does not know, so a field of a new
// kind is caught by the tests that walk it.
func LeafPaths(t testing.TB, v reflect.Value, path string, out *[]string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			LeafPaths(t, v.Elem(), path, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			LeafPaths(t, v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			LeafPaths(t, v.Index(i), path+"["+strconv.Itoa(i)+"]", out)
		}
	case reflect.String, reflect.Int, reflect.Float64:
		*out = append(*out, path)
	default:
		t.Fatalf("%s: unhandled field kind %s; teach the walker and its callers about it",
			path, v.Kind())
	}
}

// Perturb changes the leaf at path in v, whose own path is at (the
// naming of LeafPaths), and reports whether it found the leaf. v must
// be settable.
func Perturb(v reflect.Value, path, at string) bool {
	switch v.Kind() {
	case reflect.Pointer:
		return !v.IsNil() && Perturb(v.Elem(), path, at)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if Perturb(v.Field(i), path, at+"."+v.Type().Field(i).Name) {
				return true
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if Perturb(v.Index(i), path, at+"["+strconv.Itoa(i)+"]") {
				return true
			}
		}
	case reflect.String:
		if at == path {
			v.SetString(v.String() + "x")
			return true
		}
	case reflect.Int:
		if at == path {
			v.SetInt(v.Int() + 1)
			return true
		}
	case reflect.Float64:
		if at == path {
			v.SetFloat(v.Float()*1.5 + 1)
			return true
		}
	}
	return false
}
