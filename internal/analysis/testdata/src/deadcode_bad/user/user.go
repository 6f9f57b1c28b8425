// Package user is the other package whose tests select a parent name.
package user
