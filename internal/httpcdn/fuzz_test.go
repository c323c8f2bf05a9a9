package httpcdn

import "testing"

// FuzzParseObjectPath: the one path parser never panics, and what it
// accepts is inside the catalog and survives a round trip through
// ObjectPath.
func FuzzParseObjectPath(f *testing.F) {
	for _, seed := range []string{
		"/obj/0/1", "/obj/-1/1", "/obj/0/0", "/obj/0/1/", "//obj/0/1",
		"/obj/00/01", "/obj/9999999999999999999/1", "/obj/0/1?x",
	} {
		f.Add(seed)
	}
	sc := smallScenario(f)
	f.Fuzz(func(t *testing.T, path string) {
		site, object, err := ParseObjectPath(sc, path)
		if err != nil {
			return
		}
		if site < 0 || site >= sc.Sys.M() || object < 1 || object > len(sc.Work.Sites[site].Objects) {
			t.Fatalf("%q accepted as (%d, %d), outside the catalog", path, site, object)
		}
		s, o, err := ParseObjectPath(sc, ObjectPath(site, object))
		if err != nil || s != site || o != object {
			t.Fatalf("%q -> (%d, %d) -> %q -> (%d, %d), %v", path, site, object, ObjectPath(site, object), s, o, err)
		}
	})
}

// FuzzVersionFromETag: never panics, never negative, and inverts
// ETagFor on every version an origin can reach; ETagFor and ObjectPath
// equal their Sprintf oracles on every int.
func FuzzVersionFromETag(f *testing.F) {
	f.Add(`"/obj/3/9@42"`, 3, 9, 42)
	f.Add(`"no-version-here"`, 0, 1, 0)
	f.Add(`@`, -1, -1, 1)
	f.Add(`"/obj/0/1@99999999999999999999"`, 0, 1, 1<<40)
	f.Fuzz(func(t *testing.T, etag string, site, object, version int) {
		if v := VersionFromETag(etag); v < 0 {
			t.Fatalf("VersionFromETag(%q) = %d", etag, v)
		}
		if got, want := ETagFor(site, object, version), oracleETagFor(site, object, version); got != want {
			t.Fatalf("ETagFor(%d, %d, %d) = %q, want %q", site, object, version, got, want)
		}
		if got, want := ObjectPath(site, object), oracleObjectPath(site, object); got != want {
			t.Fatalf("ObjectPath(%d, %d) = %q, want %q", site, object, got, want)
		}
		if version >= 0 {
			if v := VersionFromETag(ETagFor(site, object, version)); v != version {
				t.Fatalf("VersionFromETag(ETagFor(%d, %d, %d)) = %d", site, object, version, v)
			}
		}
	})
}
