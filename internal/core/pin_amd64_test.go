//go:build amd64 && !amd64.v3

package core

// pinBriers: the fixture's classifiers train to the same bits as at the
// commit the Brier scores were recorded on — amd64 without fused
// multiply-adds, as for TestProvisionDigest in internal/modelset.
const pinBriers = true
