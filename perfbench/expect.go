package main

import "fmt"

// expectations holds the recorded output digest of each workload, by
// workload and seed.
type expectations map[string]map[uint64]string

// recorded holds the digests for the default seed (1) and one held-out
// seed (97), taken at the commit that introduced the benchmark. A claim
// developed on seed 1 can be confirmed on seed 97. Re-record a digest
// only with a change that is meant to change the program's results.
var recorded = expectations{
	"paper-sample": {
		1:  "dc3fe18cd4077be783195b938f6a4d9f4c370822eb46baa1532a9b4fbb4070af",
		97: "58fed788a11e1ad2c47fca07cadd8eea33a5e78898699da9da9aeaa7c1f71716",
	},
	"build-2048x8": {
		1:  "3d0e07368aba981450f282574eeb2cbc372d4b5a38ac89310cf5548fd5b5b76e apl=5.001345815 released=125",
		97: "2e7dd51b92d79961c42c374acf091dd36db3a4ca232b158c2a96b1f018d0316c apl=4.984912181 released=116",
	},
	"netd-read": {
		1:  "f9cf489efdcd8fc13eb441d59fea994f19c13dbd23f51b8a79135dc8deb00e72",
		97: "4d445c8f883544fe0161142acd09f6a388e9d492075e9b009b8e05d2d8e2daff",
	},
	"netd-storm": {
		1:  "005be75f6bb5ae9eb4a87e7e26871962e1392906e6e7e11bf03da52224a21e6f",
		97: "28165220760b13c728e5fb648a32ff01bceba030a97ebed1a5a4295eab7a36f8",
	},
}

// checkDigest compares a workload's output digest with the recorded one.
// A mismatch is a failed operation; for a seed with no recorded digest
// the digest is printed and only the invariant checks apply.
func (e *env) checkDigest(res *result, workload, digest string) {
	want, ok := e.expect[workload][e.seed]
	switch {
	case !ok:
		fmt.Fprintf(e.log, "perfbench: %s seed %d: digest %s (no recorded digest; invariant checks only)\n",
			workload, e.seed, digest)
	case want != digest:
		res.fail("%s seed %d: digest %s, recorded %s", workload, e.seed, digest, want)
	}
}
