//go:build !amd64 || amd64.v3

package core

const pinBriers = false
