/* Stage loop of the emulated Q1.15 FFT core (socrm.fft_engines.fft_fixed).
 *
 * The same radix-2 decimation-in-time butterflies as the NumPy loop
 * `fft_engines._stages_numpy`, which is the readable definition: the same
 * formula, operand order and (v + 2^15) >> 16 rounding, on int64.  Built with
 * -fwrapv, signed overflow wraps exactly as NumPy's int64 arithmetic does, so
 * the output is bit-identical for every input.  `top * 32768` stands for the
 * loop's `top << 15`, which C leaves undefined for negative values.
 *
 * re, im: n bit-reversed samples, transformed in place and clipped to
 * [-32768, 32767].  tw_re, tw_im: the n/2 Q1.15 twiddles exp(-2*pi*i*k/n).
 */
#include <stdint.h>

void q15_fft(int64_t *re, int64_t *im, const int64_t *tw_re, const int64_t *tw_im,
             long n)
{
    for (long half = 1; half < n; half *= 2) {
        long stride = n / (2 * half);
        for (long base = 0; base < n; base += 2 * half) {
            int64_t *top_re = re + base, *bot_re = re + base + half;
            int64_t *top_im = im + base, *bot_im = im + base + half;
            for (long j = 0; j < half; j++) {
                int64_t w_re = tw_re[j * stride], w_im = tw_im[j * stride];
                int64_t t_re = bot_re[j] * w_re - bot_im[j] * w_im;
                int64_t t_im = bot_re[j] * w_im + bot_im[j] * w_re;
                int64_t s_re = top_re[j] * 32768, s_im = top_im[j] * 32768;
                top_re[j] = (s_re + t_re + 32768) >> 16;
                bot_re[j] = (s_re - t_re + 32768) >> 16;
                top_im[j] = (s_im + t_im + 32768) >> 16;
                bot_im[j] = (s_im - t_im + 32768) >> 16;
            }
        }
    }
    /* rounding at the extreme can land one LSB past full scale */
    for (long k = 0; k < n; k++) {
        re[k] = re[k] > 32767 ? 32767 : re[k] < -32768 ? -32768 : re[k];
        im[k] = im[k] > 32767 ? 32767 : im[k] < -32768 ? -32768 : im[k];
    }
}
