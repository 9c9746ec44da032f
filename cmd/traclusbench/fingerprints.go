package main

// pinnedSeed is the seed whose clusterings are committed below.
const pinnedSeed = 1

// pinnedFingerprints are the build-* clusterings for the pinned seed at the
// default sizes on amd64 (see fingerprint). A change that alters them
// changes TRACLUS's output, not only its speed.
var pinnedFingerprints = map[string]string{
	"build-fixed": "ea9d71cbc6605f657b4d698d2daf573cbc4a2108eb3e04650b9db39ec23a0289",
	"build-auto":  "6f1da69ad7f311adf6d5fcbbf3547ebf530c555664f6bbb326c484f0dcec9a16",
}
